package dna

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomSeq(rng *rand.Rand, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(baseChars[rng.Intn(4)])
	}
	return sb.String()
}

// reverseComplementString is a character-level oracle.
func reverseComplementString(s string) string {
	comp := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A'}
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		out[len(s)-1-i] = comp[s[i]]
	}
	return string(out)
}

func TestEncodeBase(t *testing.T) {
	cases := []struct {
		in   byte
		want Base
	}{
		{'A', A}, {'C', C}, {'G', G}, {'T', T},
		{'a', A}, {'c', C}, {'g', G}, {'t', T},
		{'N', A}, {'n', A}, {'X', A}, {'.', A},
	}
	for _, tc := range cases {
		if got := EncodeBase(tc.in); got != tc.want {
			t.Errorf("EncodeBase(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// encodeBaseSwitch is the branchy decode the 256-entry table replaced, kept
// as its oracle.
func encodeBaseSwitch(c byte) Base {
	switch c {
	case 'A', 'a':
		return A
	case 'C', 'c':
		return C
	case 'G', 'g':
		return G
	case 'T', 't':
		return T
	default:
		return A
	}
}

func TestEncodeBaseTableMatchesSwitch(t *testing.T) {
	var all []byte
	for c := 0; c < 256; c++ {
		if got, want := EncodeBase(byte(c)), encodeBaseSwitch(byte(c)); got != want {
			t.Errorf("EncodeBase(%#x) = %v, want %v", c, got, want)
		}
		all = append(all, byte(c))
	}
	fromBytes := EncodeBytes(EncodeSeq(nil, "GT"), all)
	fromString := EncodeSeq(EncodeSeq(nil, "GT"), string(all))
	if DecodeSeq(fromBytes) != DecodeSeq(fromString) || len(fromBytes) != 258 {
		t.Fatalf("EncodeBytes and EncodeSeq disagree")
	}
}

func TestBaseComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("Complement(%v) = %v, want %v", b, got, want)
		}
		if got := b.Complement().Complement(); got != b {
			t.Errorf("double complement of %v = %v", b, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := randomSeq(rng, 1+rng.Intn(200))
		if got := DecodeSeq(EncodeSeq(nil, s)); got != s {
			t.Fatalf("round trip failed: %q -> %q", s, got)
		}
	}
}

func TestEncodeSeqAppends(t *testing.T) {
	prefix := EncodeSeq(nil, "ACG")
	full := EncodeSeq(prefix, "T")
	if DecodeSeq(full) != "ACGT" {
		t.Fatalf("append semantics broken: %s", DecodeSeq(full))
	}
}

func TestReverseComplementSeq(t *testing.T) {
	for _, s := range []string{"", "A", "AC", "ACG", "ACGT", "GATTACA", "TTTT"} {
		bases := EncodeSeq(nil, s)
		ReverseComplementSeq(bases)
		if got, want := DecodeSeq(bases), reverseComplementString(s); got != want {
			t.Errorf("ReverseComplementSeq(%q) = %q, want %q", s, got, want)
		}
	}
}

func TestKmerStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 15, 27, 31, 32, 33, 55, 63} {
		for trial := 0; trial < 20; trial++ {
			s := randomSeq(rng, k)
			km := KmerFromString(s)
			if got := km.String(k); got != s {
				t.Fatalf("k=%d: round trip %q -> %q", k, s, got)
			}
		}
	}
}

func TestKmerBaseAccessors(t *testing.T) {
	s := "ACGTACGTACGTACGTACGTACGTACGTACGTACG" // 35 bases, spans both words
	km := KmerFromString(s)
	k := len(s)
	for i := 0; i < k; i++ {
		if got := km.Base(i, k).Char(); got != s[i] {
			t.Errorf("Base(%d) = %c, want %c", i, got, s[i])
		}
	}
	if km.FirstBase(k).Char() != 'A' || km.LastBase().Char() != 'G' {
		t.Errorf("First/Last base wrong: %c %c", km.FirstBase(k).Char(), km.LastBase().Char())
	}
}

func TestKmerAppendBaseRolling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{5, 27, 32, 45, 63} {
		s := randomSeq(rng, k+50)
		km := KmerFromString(s[:k])
		for i := k; i < len(s); i++ {
			km = km.AppendBase(EncodeBase(s[i]), k)
			want := s[i-k+1 : i+1]
			if got := km.String(k); got != want {
				t.Fatalf("k=%d i=%d: rolling %q, want %q", k, i, got, want)
			}
		}
	}
}

func TestKmerPrependBase(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{5, 27, 33, 63} {
		s := randomSeq(rng, k+20)
		// Scan right-to-left, prepending.
		km := KmerFromString(s[len(s)-k:])
		for i := len(s) - k - 1; i >= 0; i-- {
			km = km.PrependBase(EncodeBase(s[i]), k)
			want := s[i : i+k]
			if got := km.String(k); got != want {
				t.Fatalf("k=%d i=%d: prepend got %q, want %q", k, i, got, want)
			}
		}
	}
}

func TestKmerCompareMatchesStringCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{3, 27, 32, 40, 63} {
		for trial := 0; trial < 200; trial++ {
			a, b := randomSeq(rng, k), randomSeq(rng, k)
			ka, kb := KmerFromString(a), KmerFromString(b)
			want := strings.Compare(a, b)
			if got := ka.Compare(kb); got != want {
				t.Fatalf("k=%d Compare(%q,%q)=%d want %d", k, a, b, got, want)
			}
			if gotLess := ka.Less(kb); gotLess != (want < 0) {
				t.Fatalf("k=%d Less(%q,%q)=%v want %v", k, a, b, gotLess, want < 0)
			}
		}
	}
}

func TestKmerReverseComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range []int{1, 5, 27, 32, 33, 63} {
		for trial := 0; trial < 30; trial++ {
			s := randomSeq(rng, k)
			km := KmerFromString(s)
			rc := km.ReverseComplement(k)
			if got, want := rc.String(k), reverseComplementString(s); got != want {
				t.Fatalf("k=%d RC(%q) = %q, want %q", k, s, got, want)
			}
			if back := rc.ReverseComplement(k); back != km {
				t.Fatalf("k=%d RC not involutive for %q", k, s)
			}
		}
	}
}

func TestKmerCanonical(t *testing.T) {
	km := KmerFromString("TTTTT")
	canon, isFwd := km.Canonical(5)
	if isFwd || canon.String(5) != "AAAAA" {
		t.Errorf("canonical of TTTTT: got %q fwd=%v", canon.String(5), isFwd)
	}
	km2 := KmerFromString("AAAAA")
	canon2, isFwd2 := km2.Canonical(5)
	if !isFwd2 || canon2.String(5) != "AAAAA" {
		t.Errorf("canonical of AAAAA: got %q fwd=%v", canon2.String(5), isFwd2)
	}
}

func TestKmerCanonicalProperty(t *testing.T) {
	// canonical(x) == canonical(rc(x)), and canonical <= both.
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{27, 33, 63} {
		for trial := 0; trial < 100; trial++ {
			km := KmerFromString(randomSeq(rng, k))
			rc := km.ReverseComplement(k)
			c1, _ := km.Canonical(k)
			c2, _ := rc.Canonical(k)
			if c1 != c2 {
				t.Fatalf("k=%d canonical differs between strands", k)
			}
			if km.Less(c1) || rc.Less(c1) {
				t.Fatalf("k=%d canonical is not the minimum strand", k)
			}
		}
	}
}

func TestKmerHashDistribution(t *testing.T) {
	// Distinct kmers should very rarely collide in the low bits.
	seen := make(map[uint64]bool)
	collisions := 0
	rng := rand.New(rand.NewSource(8))
	const n = 5000
	for i := 0; i < n; i++ {
		h := KmerFromString(randomSeq(rng, 27)).Hash() % (4 * n)
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	// Expected birthday collisions for n balls in 4n bins ~ n/8.
	if collisions > n/4 {
		t.Errorf("too many hash collisions: %d of %d", collisions, n)
	}
}

func TestKmerMaxKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > MaxK")
		}
	}()
	KmerFromBases(make([]Base, 64), 64)
}

// TestKmerFromBasesMatchesRollingAppend: packing k bases directly is the
// window AppendBase rolls to over the same bases, for every k, also when the
// slice is longer than k or holds bytes above 3.
func TestKmerFromBasesMatchesRollingAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for k := 1; k <= MaxK; k++ {
		bases := make([]Base, k+rng.Intn(5))
		for i := range bases {
			bases[i] = Base(rng.Intn(256))
		}
		var want Kmer
		for _, b := range bases[:k] {
			want = want.AppendBase(b, k)
		}
		if got := KmerFromBases(bases, k); got != want {
			t.Fatalf("k=%d: KmerFromBases = %v, rolling AppendBase = %v", k, got, want)
		}
	}
}

func TestQuickKmerOrderIsStringOrder(t *testing.T) {
	f := func(a, b [27]uint8) bool {
		sa := make([]byte, 27)
		sb := make([]byte, 27)
		for i := 0; i < 27; i++ {
			sa[i] = baseChars[a[i]%4]
			sb[i] = baseChars[b[i]%4]
		}
		ka, kb := KmerFromString(string(sa)), KmerFromString(string(sb))
		return ka.Less(kb) == (strings.Compare(string(sa), string(sb)) < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRCInvolution(t *testing.T) {
	f := func(raw [45]uint8) bool {
		bases := make([]Base, 45)
		for i := range raw {
			bases[i] = Base(raw[i] % 4)
		}
		km := KmerFromBases(bases, 45)
		return km.ReverseComplement(45).ReverseComplement(45) == km
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKmerBitLenAndBits8(t *testing.T) {
	cases := []struct {
		km   Kmer
		bits int
	}{
		{Kmer{}, 0},
		{Kmer{Lo: 1}, 1},
		{Kmer{Lo: 1 << 63}, 64},
		{Kmer{Hi: 1}, 65},
		{Kmer{Hi: 1 << 61, Lo: 7}, 126},
	}
	for _, c := range cases {
		if got := c.km.BitLen(); got != c.bits {
			t.Errorf("BitLen(%+v) = %d, want %d", c.km, got, c.bits)
		}
	}
	km := Kmer{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	for shift := uint(0); shift < 128; shift++ {
		// The reference: shift the 128-bit value right one bit at a time.
		hi, lo := km.Hi, km.Lo
		for i := uint(0); i < shift; i++ {
			lo = lo>>1 | hi<<63
			hi >>= 1
		}
		if got := km.Bits8(shift); got != uint8(lo) {
			t.Errorf("Bits8(%d) = %#x, want %#x", shift, got, uint8(lo))
		}
	}
}
