// Package dna provides the 2-bit DNA alphabet, multi-word k-mer values,
// reverse complements, canonical forms, and minimizer computation used
// throughout the ParaHash De Bruijn graph construction pipeline.
//
// The alphabet is Σ = {A, C, G, T}, encoded as A=0, C=1, G=2, T=3 so that
// the integer order of encoded values equals the lexicographic order of the
// bases. Unknown bases (e.g. 'N') are normalised to 'A', following the
// convention of most assemblers.
package dna

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Base is a single 2-bit encoded DNA base: A=0, C=1, G=2, T=3.
type Base uint8

// Encoded base values. Their integer order equals lexicographic base order.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// MaxK is the largest k-mer length representable by Kmer
// (2 bits per base across two 64-bit words, with K kept out-of-band).
const MaxK = 63

// baseChars maps encoded values back to upper-case base characters.
var baseChars = [4]byte{'A', 'C', 'G', 'T'}

// baseCodes maps every byte to its 2-bit encoding: A, C, G and T in either
// case to their codes, everything else to A.
var baseCodes = func() (t [256]Base) {
	t['C'], t['c'] = C, C
	t['G'], t['g'] = G, G
	t['T'], t['t'] = T, T
	return t
}()

// EncodeBase converts a base character to its 2-bit encoding.
// Lower-case characters are accepted; every character outside {A,C,G,T}
// is treated as 'A', matching standard assembler behaviour for 'N'.
func EncodeBase(c byte) Base { return baseCodes[c] }

// Char returns the upper-case character for the base.
func (b Base) Char() byte { return baseChars[b&3] }

// Complement returns the Watson-Crick complement (A<->T, C<->G).
func (b Base) Complement() Base { return b ^ 3 }

// String implements fmt.Stringer.
func (b Base) String() string { return string(baseChars[b&3]) }

// EncodeSeq encodes a character sequence into 2-bit bases.
// The result is appended to dst and returned.
func EncodeSeq(dst []Base, seq string) []Base { return encode(dst, seq) }

// EncodeBytes is EncodeSeq over a byte slice, so a parser can encode a line
// in place without first copying it into a string.
func EncodeBytes(dst []Base, seq []byte) []Base { return encode(dst, seq) }

func encode[S ~string | ~[]byte](dst []Base, seq S) []Base {
	n := len(dst)
	dst = slices.Grow(dst, len(seq))[:n+len(seq)]
	out := dst[n:][:len(seq)]
	for i := 0; i < len(seq); i++ {
		out[i] = baseCodes[seq[i]]
	}
	return dst
}

// DecodeSeq renders encoded bases as an upper-case string.
func DecodeSeq(bases []Base) string {
	var sb strings.Builder
	sb.Grow(len(bases))
	for _, b := range bases {
		sb.WriteByte(b.Char())
	}
	return sb.String()
}

// ReverseComplementSeq reverse-complements the bases in place.
func ReverseComplementSeq(bases []Base) {
	for i, j := 0, len(bases)-1; i < j; i, j = i+1, j-1 {
		bases[i], bases[j] = bases[j].Complement(), bases[i].Complement()
	}
	if len(bases)%2 == 1 {
		mid := len(bases) / 2
		bases[mid] = bases[mid].Complement()
	}
}

// Kmer is a k-mer of up to MaxK bases packed 2 bits per base into two
// 64-bit words. Base 0 (the leftmost base of the string) occupies the
// highest used bit positions, so for two k-mers of equal length, comparing
// (Hi, Lo) as a 128-bit unsigned integer is exactly the lexicographic
// comparison of the underlying base strings.
//
// The length K is carried alongside the words rather than inside them; a
// Kmer is only meaningful together with its length, which in ParaHash is
// fixed per construction run.
type Kmer struct {
	// Hi holds the high 64 bits, Lo the low 64 bits of the packed value.
	Hi, Lo uint64
}

// kmerMask returns the mask covering the low 2k bits of a 128-bit value.
func kmerMask(k int) (hi, lo uint64) {
	bits := 2 * k
	switch {
	case bits <= 0:
		return 0, 0
	case bits < 64:
		return 0, (uint64(1) << bits) - 1
	case bits == 64:
		return 0, ^uint64(0)
	case bits < 128:
		return (uint64(1) << (bits - 64)) - 1, ^uint64(0)
	default:
		return ^uint64(0), ^uint64(0)
	}
}

// KmerFromBases packs bases[0:k] into a Kmer. It panics if k exceeds MaxK,
// since a fixed K is validated once at configuration time.
func KmerFromBases(bases []Base, k int) Kmer {
	if k > MaxK {
		panic(fmt.Sprintf("dna: k=%d exceeds MaxK=%d", k, MaxK))
	}
	// k bases shifted into zero fill exactly the low 2k bits, so there is
	// nothing to mask off — where AppendBase, which rolls a full window on,
	// works the mask out and applies it for every base.
	var km Kmer
	for _, b := range bases[:k] {
		km.Hi = km.Hi<<2 | km.Lo>>62
		km.Lo = km.Lo<<2 | uint64(b&3)
	}
	return km
}

// KmerFromString packs a base string into a Kmer of length len(s).
func KmerFromString(s string) Kmer {
	bases := EncodeSeq(nil, s)
	return KmerFromBases(bases, len(bases))
}

// AppendBase shifts the k-mer window one base to the right: the leftmost
// base falls out and b becomes the new rightmost base. This is the rolling
// update used when scanning a read.
func (km Kmer) AppendBase(b Base, k int) Kmer {
	hi := km.Hi<<2 | km.Lo>>62
	lo := km.Lo<<2 | uint64(b&3)
	mhi, mlo := kmerMask(k)
	return Kmer{Hi: hi & mhi, Lo: lo & mlo}
}

// PrependBase shifts the k-mer window one base to the left: the rightmost
// base falls out and b becomes the new leftmost base. Used for the rolling
// reverse-complement update.
func (km Kmer) PrependBase(b Base, k int) Kmer {
	lo := km.Lo>>2 | km.Hi<<62
	hi := km.Hi >> 2
	pos := 2 * (k - 1)
	if pos < 64 {
		lo |= uint64(b&3) << pos
	} else {
		hi |= uint64(b&3) << (pos - 64)
	}
	return Kmer{Hi: hi, Lo: lo}
}

// Base returns the i-th base (0 = leftmost) of a length-k k-mer.
func (km Kmer) Base(i, k int) Base {
	pos := 2 * (k - 1 - i)
	if pos < 64 {
		return Base(km.Lo >> pos & 3)
	}
	return Base(km.Hi >> (pos - 64) & 3)
}

// FirstBase returns the leftmost base of a length-k k-mer.
func (km Kmer) FirstBase(k int) Base { return km.Base(0, k) }

// LastBase returns the rightmost base.
func (km Kmer) LastBase() Base { return Base(km.Lo & 3) }

// Less reports whether km precedes other lexicographically,
// assuming both have the same length.
func (km Kmer) Less(other Kmer) bool {
	if km.Hi != other.Hi {
		return km.Hi < other.Hi
	}
	return km.Lo < other.Lo
}

// Compare returns -1, 0 or +1 like bytes.Compare, assuming equal lengths.
func (km Kmer) Compare(other Kmer) int {
	switch {
	case km.Hi < other.Hi:
		return -1
	case km.Hi > other.Hi:
		return 1
	case km.Lo < other.Lo:
		return -1
	case km.Lo > other.Lo:
		return 1
	default:
		return 0
	}
}

// BitLen returns the number of significant bits in the packed k-mer: the
// key width a radix sort must cover (at most 2k for a valid k-mer).
func (km Kmer) BitLen() int {
	if km.Hi != 0 {
		return 64 + bits.Len64(km.Hi)
	}
	return bits.Len64(km.Lo)
}

// Bits8 returns the eight bits of the packed k-mer that start at bit shift
// (0 <= shift < 128) — a radix-sort digit.
func (km Kmer) Bits8(shift uint) uint8 {
	if shift >= 64 {
		return uint8(km.Hi >> (shift - 64))
	}
	return uint8(km.Lo>>shift | km.Hi<<(64-shift))
}

// revComp2 reverses the order of the 32 2-bit base codes in one word and
// complements each: bits.Reverse64 reverses bit order (which also swaps the
// two bits inside every base code), the masked shift pair swaps them back,
// and the XOR applies the A<->T / C<->G complement (b^3 per base).
func revComp2(x uint64) uint64 {
	x = bits.Reverse64(x)
	x = (x&0x5555555555555555)<<1 | (x>>1)&0x5555555555555555
	return ^x
}

// ReverseComplement returns the reverse complement of a length-k k-mer.
// It is loop-free: the packed 128-bit value is base-reversed and
// complemented with word-level bit tricks, then shifted down so the result
// occupies the low 2k bits — O(1) regardless of k, where the naive oracle
// (ReverseComplementNaive) walks all k bases.
func (km Kmer) ReverseComplement(k int) Kmer {
	// Reversing all 128 bits base-wise puts the k-mer in the high 2k bits;
	// the complement happens in the same pass.
	hi, lo := revComp2(km.Lo), revComp2(km.Hi)
	// Shift the reversed value down into the low 2k bits. k <= MaxK = 63,
	// so shift >= 2; the shifted-in high bits are zero, masking the result.
	shift := uint(128 - 2*k)
	switch {
	case shift < 64:
		lo = lo>>shift | hi<<(64-shift)
		hi >>= shift
	case shift == 64:
		lo, hi = hi, 0
	default:
		lo, hi = hi>>(shift-64), 0
	}
	return Kmer{Hi: hi, Lo: lo}
}

// ReverseComplementNaive is the direct O(k) base-loop implementation of
// ReverseComplement, kept as the test and fuzz oracle for the bit-trick
// version (mirroring the Minimizers / MinimizersNaive pattern).
func (km Kmer) ReverseComplementNaive(k int) Kmer {
	var rc Kmer
	cur := km
	for i := 0; i < k; i++ {
		rc = rc.AppendBase(Base(cur.Lo&3).Complement(), k)
		cur.Lo = cur.Lo>>2 | cur.Hi<<62
		cur.Hi >>= 2
	}
	return rc
}

// Canonical returns the lexicographically smaller of the k-mer and its
// reverse complement, which is the vertex representative in the bi-directed
// De Bruijn graph, together with a flag reporting whether the k-mer itself
// was already canonical (true) or the reverse complement was taken (false).
func (km Kmer) Canonical(k int) (Kmer, bool) {
	rc := km.ReverseComplement(k)
	if rc.Less(km) {
		return rc, false
	}
	return km, true
}

// String renders the k-mer's base string; it needs the length k because
// leading 'A' bases are zero bits.
func (km Kmer) String(k int) string {
	var sb strings.Builder
	sb.Grow(k)
	for i := 0; i < k; i++ {
		sb.WriteByte(km.Base(i, k).Char())
	}
	return sb.String()
}

// Hash mixes the packed words into a well-distributed 64-bit value.
// It applies the 64-bit finalizer of MurmurHash3 to each word and combines
// them, which is sufficient for open-addressing table placement and for
// superkmer partition assignment.
func (km Kmer) Hash() uint64 {
	h := mix64(km.Hi) ^ mix64(km.Lo+0x9e3779b97f4a7c15)
	return mix64(h)
}

// Mix64 applies the MurmurHash3 fmix64 finalizer to x. It is the hash used
// for superkmer partition assignment (hash of the minimizer value modulo the
// number of partitions, as in the paper's MSP step).
func Mix64(x uint64) uint64 { return mix64(x) }

// mix64 is the MurmurHash3 fmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
