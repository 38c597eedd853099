package dna

import (
	"math/rand"
	"testing"
)

// canonicalPmerOracle computes the canonical p-mer at a position by strings.
func canonicalPmerOracle(t *testing.T, read []Base, j, p int) uint64 {
	t.Helper()
	fwd := read[j : j+p]
	rcBases := make([]Base, p)
	copy(rcBases, fwd)
	ReverseComplementSeq(rcBases)
	packs := func(bs []Base) uint64 {
		var v uint64
		for _, b := range bs {
			v = v<<2 | uint64(b&3)
		}
		return v
	}
	f, r := packs(fwd), packs(rcBases)
	if r < f {
		return r
	}
	return f
}

func TestCanonicalPmers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{1, 3, 7, 11, 19, 31} {
		read := make([]Base, 80)
		for i := range read {
			read[i] = Base(rng.Intn(4))
		}
		got := CanonicalPmers(nil, read, p)
		want := len(read) - p + 1
		if len(got) != want {
			t.Fatalf("p=%d: got %d pmers, want %d", p, len(got), want)
		}
		for j := range got {
			if oracle := canonicalPmerOracle(t, read, j, p); got[j] != oracle {
				t.Fatalf("p=%d j=%d: got %d want %d (%s vs %s)",
					p, j, got[j], oracle, PmerString(got[j], p), PmerString(oracle, p))
			}
		}
	}
}

func TestCanonicalPmersShortRead(t *testing.T) {
	read := EncodeSeq(nil, "ACG")
	if got := CanonicalPmers(nil, read, 5); len(got) != 0 {
		t.Errorf("expected no pmers for read shorter than p, got %d", len(got))
	}
}

func TestMinimizersMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		l := 30 + rng.Intn(120)
		read := make([]Base, l)
		for i := range read {
			read[i] = Base(rng.Intn(4))
		}
		k := 15 + rng.Intn(13)
		p := 1 + rng.Intn(k)
		if p > MaxP {
			p = MaxP
		}
		fast := Minimizers(nil, read, k, p)
		naive := MinimizersNaive(nil, read, k, p)
		if len(fast) != len(naive) {
			t.Fatalf("k=%d p=%d: len %d vs %d", k, p, len(fast), len(naive))
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("k=%d p=%d i=%d: %d vs %d", k, p, i, fast[i], naive[i])
			}
		}
	}
}

// minimizersDeque is the monotonic-deque sliding-window minimum the block
// minima replaced, kept as a second oracle beside MinimizersNaive.
func minimizersDeque(dst []uint64, read []Base, k, p int) []uint64 {
	if len(read)-k+1 <= 0 {
		return dst
	}
	pmers := CanonicalPmers(nil, read, p)
	w := k - p + 1
	var deque []int
	head := 0
	for j := range pmers {
		for len(deque) > head && pmers[deque[len(deque)-1]] > pmers[j] {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, j)
		if start := j - w + 1; start >= 0 {
			if deque[head] < start {
				head++
			}
			dst = append(dst, pmers[deque[head]])
		}
	}
	return dst
}

// TestMinimizersEveryKP holds the block minima to both oracles for every
// 1 <= p <= k <= MaxK (p <= MaxP) on reads of length k-1 … 3k, so every
// window width meets every shape of partial last block. One warm
// MinimizerBuf serves them all. A prefix's minimizers are the first ones of
// the whole read's, so the naive rescan runs once per (k, p).
func TestMinimizersEveryKP(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var mb MinimizerBuf
	var got []uint64
	for k := 1; k <= MaxK; k++ {
		read := make([]Base, 3*k)
		for i := range read {
			read[i] = Base(rng.Intn(4))
		}
		for p := 1; p <= min(k, MaxP); p++ {
			naive := MinimizersNaive(nil, read, k, p)
			for l := k - 1; l <= 3*k; l++ {
				got = mb.Minimizers(got[:0], read[:l], k, p)
				deque := minimizersDeque(nil, read[:l], k, p)
				if len(got) != max(l-k+1, 0) || len(deque) != len(got) {
					t.Fatalf("k=%d p=%d len=%d: %d minimizers, deque %d", k, p, l, len(got), len(deque))
				}
				for i := range got {
					if got[i] != naive[i] || deque[i] != naive[i] {
						t.Fatalf("k=%d p=%d len=%d i=%d: block %d, deque %d, naive %d",
							k, p, l, i, got[i], deque[i], naive[i])
					}
				}
			}
		}
	}
}

func TestMinimizersCount(t *testing.T) {
	read := make([]Base, 101)
	got := Minimizers(nil, read, 27, 11)
	if len(got) != 101-27+1 {
		t.Fatalf("expected %d minimizers, got %d", 101-27+1, len(got))
	}
}

func TestMinimizersStrandInvariance(t *testing.T) {
	// The multiset of minimizers of a read equals that of its reverse
	// complement (reversed): kmer i of rc(read) is rc(kmer nk-1-i of read),
	// and canonical minimizers are strand-invariant.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		read := make([]Base, 60)
		for i := range read {
			read[i] = Base(rng.Intn(4))
		}
		rc := make([]Base, len(read))
		copy(rc, read)
		ReverseComplementSeq(rc)
		k, p := 21, 7
		mf := Minimizers(nil, read, k, p)
		mr := Minimizers(nil, rc, k, p)
		for i := range mf {
			if mf[i] != mr[len(mr)-1-i] {
				t.Fatalf("trial %d i=%d: minimizer not strand invariant", trial, i)
			}
		}
	}
}

func TestMinimizerPanicsWhenPExceedsK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p > k")
		}
	}()
	Minimizers(nil, make([]Base, 50), 10, 11)
}

func TestPmerString(t *testing.T) {
	v := uint64(0b00_01_10_11) // ACGT
	if got := PmerString(v, 4); got != "ACGT" {
		t.Errorf("PmerString = %q, want ACGT", got)
	}
}

func BenchmarkMinimizers(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	read := make([]Base, 101)
	for i := range read {
		read[i] = Base(rng.Intn(4))
	}
	b.ReportAllocs()
	dst := make([]uint64, 0, 128)
	for i := 0; i < b.N; i++ {
		dst = Minimizers(dst[:0], read, 27, 11)
	}
}

func BenchmarkKmerRolling(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	read := make([]Base, 101)
	for i := range read {
		read[i] = Base(rng.Intn(4))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		km := KmerFromBases(read, 27)
		for j := 27; j < len(read); j++ {
			km = km.AppendBase(read[j], 27)
		}
	}
}
