package dna

import "slices"

// This file implements P-minimum-substrings (Definition 1 of the paper) and
// the per-k-mer minimizer values used by the Minimum Substring Partitioning
// step. A minimizer is represented as the packed 2-bit value of its P bases
// in a uint64 (so P <= MaxP); integer order equals lexicographic order.
//
// ParaHash builds a bi-directed graph on canonical k-mers, so the minimizer
// of a k-mer is taken over the length-P substrings of both the k-mer and its
// reverse complement. This guarantees that a k-mer and its reverse
// complement occurring anywhere in the input share the same minimizer and
// therefore land in the same superkmer partition.

// MaxP is the largest minimizer length representable in a packed uint64.
const MaxP = 31

// PmerMask returns the mask covering a packed length-p value.
func PmerMask(p int) uint64 {
	return (uint64(1) << (2 * p)) - 1
}

// CanonicalPmers computes, for every position j in 0..len(read)-p, the
// canonical p-mer value at j: the smaller of the packed p-mer and the packed
// reverse complement of that p-mer. The result is appended to dst.
func CanonicalPmers(dst []uint64, read []Base, p int) []uint64 {
	n := len(read) - p + 1
	if n <= 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	mask := PmerMask(p)
	rcShift := uint(2 * (p - 1))
	var fwd, rc uint64
	for _, b := range read[:p-1] {
		fwd = fwd<<2 | uint64(b&3)
		rc = rc>>2 | uint64(b&3^3)<<rcShift
	}
	src := read[p-1:]
	out := dst[len(dst) : len(dst)+n][:len(src)]
	for j, b := range src {
		fwd = (fwd<<2 | uint64(b&3)) & mask
		rc = rc>>2 | uint64(b&3^3)<<rcShift
		out[j] = min(fwd, rc)
	}
	return dst[:len(dst)+n]
}

// Minimizers computes the minimizer (the canonical P-minimum-substring
// value) of every k-mer in the read: result[i] is the minimum canonical
// p-mer value over offsets i..i+k-p. The result is appended to dst.
//
// The sliding-window minimum is van Herk/Gil-Werman's: the p-mers are cut
// into blocks of the window's width w, and a window, which spans at most two
// blocks, takes the smaller of its first p-mer's suffix minimum and its last
// p-mer's prefix minimum. That is three branch-free linear passes whatever w
// is, so a read of length L costs O(L) rather than the O(L*K*P) naive
// rescan. This convenience form allocates fresh scratch per call; hot loops
// should hold a MinimizerBuf (msp.Scanner does) so repeated reads cost zero
// allocations.
func Minimizers(dst []uint64, read []Base, k, p int) []uint64 {
	var mb MinimizerBuf
	return mb.Minimizers(dst, read, k, p)
}

// MinimizerBuf holds the reusable scratch of the minimizer computation: the
// per-position canonical p-mer values, which become the block suffix minima
// in place, and the block prefix minima. After warming up on the longest
// read, Minimizers performs zero allocations per call. A MinimizerBuf is not
// safe for concurrent use; each worker owns one.
type MinimizerBuf struct {
	pmers []uint64
	pre   []uint64
}

// Minimizers is the scratch-reusing form of the package-level Minimizers;
// both produce identical output.
func (mb *MinimizerBuf) Minimizers(dst []uint64, read []Base, k, p int) []uint64 {
	if p > k {
		panic("dna: minimizer length P exceeds K")
	}
	nk := len(read) - k + 1
	if nk <= 0 {
		return dst
	}
	mb.pmers = CanonicalPmers(mb.pmers[:0], read, p)
	suf := mb.pmers
	if cap(mb.pre) < len(suf) {
		mb.pre = make([]uint64, len(suf))
	}
	pre := mb.pre[:len(suf)]
	w := k - p + 1 // window: each k-mer spans w consecutive p-mers
	for lo := 0; lo < len(suf); lo += w {
		blk := suf[lo:min(lo+w, len(suf))]
		blkPre := pre[lo:][:len(blk)]
		run := blk[0]
		for j, v := range blk {
			run = min(run, v)
			blkPre[j] = run
		}
		run = blk[len(blk)-1]
		for j := len(blk) - 1; j >= 0; j-- {
			run = min(run, blk[j])
			blk[j] = run
		}
	}
	dst = slices.Grow(dst, nk)
	out := dst[len(dst) : len(dst)+nk]
	first, last := suf[:len(out)], pre[w-1:][:len(out)]
	for i := range out {
		out[i] = min(first[i], last[i])
	}
	return dst[:len(dst)+nk]
}

// MinimizersNaive is the direct O(L*K) re-scan implementation of Minimizers,
// kept as a test oracle for the block-minima version.
func MinimizersNaive(dst []uint64, read []Base, k, p int) []uint64 {
	nk := len(read) - k + 1
	if nk <= 0 {
		return dst
	}
	pmers := CanonicalPmers(nil, read, p)
	w := k - p + 1
	for i := 0; i < nk; i++ {
		min := pmers[i]
		for j := i + 1; j < i+w; j++ {
			if pmers[j] < min {
				min = pmers[j]
			}
		}
		dst = append(dst, min)
	}
	return dst
}

// PmerString renders a packed p-mer value as its base string.
func PmerString(v uint64, p int) string {
	buf := make([]byte, p)
	for i := p - 1; i >= 0; i-- {
		buf[i] = Base(v & 3).Char()
		v >>= 2
	}
	return string(buf)
}
