// Package msp implements the Minimum Substring Partitioning step of
// ParaHash (Step 1): superkmer generation from reads, minimizer-based
// partition assignment, and the compact 2-bit-encoded superkmer file format.
//
// Following the paper, superkmers carry up to two extension base pairs (one
// on each side) that record the adjacency of their boundary k-mers to
// neighbouring superkmers, so the complete bi-directed De Bruijn graph —
// including cross-partition edges — is reconstructible from the partitions.
package msp

import (
	"fmt"

	"parahash/internal/dna"
)

// Superkmer is a maximal run of consecutive k-mers from one read that share
// a common minimizer (Definition 2 of the paper), plus the extension bases
// that preserve boundary adjacency.
type Superkmer struct {
	// Bases is the superkmer substring of the read; len(Bases) >= K, and it
	// contains len(Bases)-K+1 k-mers.
	Bases []dna.Base
	// Minimizer is the packed canonical P-minimum-substring value shared by
	// every k-mer in the superkmer; it determines the partition.
	Minimizer uint64
	// HasLeft reports whether Left holds the base that precedes the
	// superkmer in its read (absent only at the start of a read).
	HasLeft bool
	// HasRight reports whether Right holds the base that follows the
	// superkmer in its read (absent only at the end of a read).
	HasRight bool
	// Left is the preceding base when HasLeft.
	Left dna.Base
	// Right is the following base when HasRight.
	Right dna.Base
	// Part is the partition index precomputed at scan time, valid only when
	// PartValid. A Scanner with NumPartitions set fills it so the sequential
	// Step 1 output stage routes records without re-hashing the minimizer;
	// it is not part of the encoded record format.
	Part int32
	// PartValid reports whether Part holds a scan-time partition index.
	PartValid bool
	// Dup counts the further identical records folded into this one by the
	// Step 2 decoder (DecodedPartition.Decode); it is 0 for Step 1 output and
	// below math.MaxUint32, so Weight always fits a uint32. It sits in the
	// struct's padding and is not part of the encoded record format.
	Dup uint32
}

// NumKmers returns the number of k-mers contained in the superkmer.
func (s Superkmer) NumKmers(k int) int { return len(s.Bases) - k + 1 }

// Weight is how many records the superkmer stands for: itself plus the
// identical ones folded into it. Every k-mer it contains counts that often.
func (s Superkmer) Weight() uint32 { return 1 + s.Dup }

// Partition returns the superkmer partition index for a minimizer value:
// the hash of the minimizer modulo the number of partitions.
func Partition(minimizer uint64, numPartitions int) int {
	return int(dna.Mix64(minimizer) % uint64(numPartitions))
}

// SuperkmersFromRead splits one read into superkmers for the given k-mer
// and minimizer lengths, appending to dst. Reads shorter than k produce
// nothing. The union of k-mers across the returned superkmers is exactly
// the read's k-mer multiset, each k-mer appearing exactly once.
func SuperkmersFromRead(dst []Superkmer, read []dna.Base, k, p int) []Superkmer {
	var s Scanner
	s.K, s.P = k, p
	return s.Superkmers(dst, read)
}

// Scanner splits reads into superkmers while reusing its minimizer and
// p-mer scratch buffers across calls: after warming up on the longest read
// it performs zero allocations per read (the caller owns the output slice).
// A Scanner is not safe for concurrent use; each worker owns one.
type Scanner struct {
	// K is the k-mer length, P the minimizer length; P <= K <= dna.MaxK.
	K, P int
	// NumPartitions, when positive, makes the Scanner stamp every emitted
	// superkmer with its partition index (Partition of the minimizer), so
	// routing work moves from the sequential output stage into the parallel
	// scan. Zero leaves Part unset and routing to the writer.
	NumPartitions int

	minims []uint64
	mb     dna.MinimizerBuf
}

// Superkmers appends the superkmers of read to dst and returns it.
func (s *Scanner) Superkmers(dst []Superkmer, read []dna.Base) []Superkmer {
	nk := len(read) - s.K + 1
	if nk <= 0 {
		return dst
	}
	s.minims = s.mb.Minimizers(s.minims[:0], read, s.K, s.P)
	start := 0
	for i := 1; i <= nk; i++ {
		if i == nk || s.minims[i] != s.minims[start] {
			sk := makeSuperkmer(read, start, i-1, s.K, s.minims[start])
			if s.NumPartitions > 0 {
				sk.Part = int32(Partition(sk.Minimizer, s.NumPartitions))
				sk.PartValid = true
			}
			dst = append(dst, sk)
			start = i
		}
	}
	return dst
}

func makeSuperkmer(read []dna.Base, firstKmer, lastKmer, k int, minimizer uint64) Superkmer {
	lo := firstKmer
	hi := lastKmer + k // exclusive
	sk := Superkmer{
		Bases:     read[lo:hi:hi],
		Minimizer: minimizer,
	}
	if lo > 0 {
		sk.HasLeft = true
		sk.Left = read[lo-1]
	}
	if hi < len(read) {
		sk.HasRight = true
		sk.Right = read[hi]
	}
	return sk
}

// NoBase marks an absent neighbour base in KmerEdge.
const NoBase int8 = -1

// KmerEdge is one k-mer instance extracted from a superkmer, oriented to
// its canonical strand. Left and Right are the adjacent bases on the
// canonical orientation's left and right sides (NoBase when the k-mer sits
// at a genuine read end). The edge weights of Definition 3 are the counts
// of these (vertex, side, base) observations.
type KmerEdge struct {
	// Canon is the canonical k-mer (the graph vertex).
	Canon dna.Kmer
	// Left is the base preceding the canonical orientation, or NoBase.
	Left int8
	// Right is the base following the canonical orientation, or NoBase.
	Right int8
}

// ForEachKmerEdge enumerates every k-mer instance in the superkmer as a
// canonical-oriented KmerEdge. For a forward-canonical instance the read's
// previous/next bases map to Left/Right directly; for a reverse-canonical
// instance they swap sides and complement, so that strand-mirrored inputs
// produce identical observations.
//
// Canonical orientation is maintained with a rolling reverse-complement
// window: appending base b on the forward strand prepends b's complement on
// the reverse strand, so each k-mer instance costs O(1) instead of the O(k)
// re-derivation of Kmer.Canonical. ForEachKmerEdgeNaive is the per-instance
// oracle the equivalence tests check against.
func ForEachKmerEdge(sk Superkmer, k int, fn func(KmerEdge)) {
	n := sk.NumKmers(k)
	if n <= 0 {
		return
	}
	km := dna.KmerFromBases(sk.Bases, k)
	rc := km.ReverseComplement(k)
	for t := 0; t < n; t++ {
		if t > 0 {
			b := sk.Bases[t+k-1]
			km = km.AppendBase(b, k)
			rc = rc.PrependBase(b.Complement(), k)
		}
		prev, next := NoBase, NoBase
		if t > 0 {
			prev = int8(sk.Bases[t-1])
		} else if sk.HasLeft {
			prev = int8(sk.Left)
		}
		if t < n-1 {
			next = int8(sk.Bases[t+k])
		} else if sk.HasRight {
			next = int8(sk.Right)
		}
		var e KmerEdge
		if rc.Less(km) {
			e.Canon = rc
			e.Left, e.Right = complementOrNone(next), complementOrNone(prev)
		} else {
			e.Canon = km
			e.Left, e.Right = prev, next
		}
		fn(e)
	}
}

// ForEachKmerEdgeNaive is the reference implementation of ForEachKmerEdge:
// it re-derives the canonical form of every k-mer instance from scratch via
// Kmer.Canonical. Kept as the oracle for the rolling-window version.
func ForEachKmerEdgeNaive(sk Superkmer, k int, fn func(KmerEdge)) {
	n := sk.NumKmers(k)
	if n <= 0 {
		return
	}
	km := dna.KmerFromBases(sk.Bases, k)
	for t := 0; t < n; t++ {
		if t > 0 {
			km = km.AppendBase(sk.Bases[t+k-1], k)
		}
		prev, next := NoBase, NoBase
		if t > 0 {
			prev = int8(sk.Bases[t-1])
		} else if sk.HasLeft {
			prev = int8(sk.Left)
		}
		if t < n-1 {
			next = int8(sk.Bases[t+k])
		} else if sk.HasRight {
			next = int8(sk.Right)
		}
		canon, fwd := km.Canonical(k)
		var e KmerEdge
		e.Canon = canon
		if fwd {
			e.Left, e.Right = prev, next
		} else {
			e.Left, e.Right = complementOrNone(next), complementOrNone(prev)
		}
		fn(e)
	}
}

func complementOrNone(b int8) int8 {
	if b == NoBase {
		return NoBase
	}
	return b ^ 3
}

// String renders the superkmer for debugging.
func (s Superkmer) String() string {
	l, r := ".", "."
	if s.HasLeft {
		l = s.Left.String()
	}
	if s.HasRight {
		r = s.Right.String()
	}
	return fmt.Sprintf("%s[%s]%s", l, dna.DecodeSeq(s.Bases), r)
}
