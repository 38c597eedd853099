package msp

import (
	"sync"
	"sync/atomic"

	"parahash/internal/dna"
)

// Spill records are the unit of the out-of-core Step 2 path: instead of
// inserting each k-mer observation into an in-memory hash table, the
// external backend flattens a partition's superkmers into fixed-size
// (canonical k-mer, edge-bits) records, sorts them in bounded buffers and
// spills the sorted runs to disk for a later streaming merge. The record
// carries exactly the information hashtable.InsertEdge consumes — the
// canonical vertex, which (side, base) counters to bump and by how much —
// so the merge reproduces the in-core table's counters bit for bit.

// SpillRecordBytes is the memory charged per buffered spill record: the
// 16-byte packed k-mer, the edge byte, padding and the weight.
const SpillRecordBytes = 24

// SpillRecord is one canonical k-mer observation in spill form, standing
// for Weight identical observations.
type SpillRecord struct {
	// Kmer is the canonical k-mer (the graph vertex).
	Kmer dna.Kmer
	// Edge packs the KmerEdge neighbour bases: bit 0 set when a left
	// neighbour exists, bit 1 when a right one does, bits 2-3 the left base
	// and bits 4-5 the right base — the same flag layout the superkmer file
	// format uses for its extension bases.
	Edge uint8
	// Weight is how many times the observation was made: the Weight of the
	// superkmer it came from. A run adds it to each counter Edge names.
	Weight uint32
}

const (
	spillHasLeft  = 1 << 0
	spillHasRight = 1 << 1
)

// EncodeSpillEdge packs a KmerEdge's neighbour pair (NoBase for an absent
// side) into the spill edge byte.
func EncodeSpillEdge(left, right int8) uint8 {
	var e uint8
	if left != NoBase {
		e = spillHasLeft | uint8(left&3)<<2
	}
	if right != NoBase {
		e |= spillHasRight | uint8(right&3)<<4
	}
	return e
}

// DecodeSpillEdge unpacks the edge byte back into the KmerEdge neighbour
// pair, NoBase for absent sides.
func DecodeSpillEdge(e uint8) (left, right int8) {
	left, right = NoBase, NoBase
	if e&spillHasLeft != 0 {
		left = int8(e >> 2 & 3)
	}
	if e&spillHasRight != 0 {
		right = int8(e >> 4 & 3)
	}
	return left, right
}

// AppendSpillRecords flattens every k-mer instance of the superkmer into
// spill records appended to dst, each weighted by the superkmer's Weight:
// a folded superkmer appends one record per k-mer, not one per copy. It
// allocates only when dst's capacity is exhausted, so a run buffer sized to
// the partition budget is filled with zero allocations.
func AppendSpillRecords(dst []SpillRecord, sk Superkmer, k int) []SpillRecord {
	w := sk.Weight()
	ForEachKmerEdge(sk, k, func(e KmerEdge) {
		dst = append(dst, SpillRecord{Kmer: e.Canon, Edge: EncodeSpillEdge(e.Left, e.Right), Weight: w})
	})
	return dst
}

// spillSortSmall is the length up to which insertion sort beats setting up
// the radix histograms.
const spillSortSmall = 32

// spillSortParallelMin is the record count below which SortSpillRecords
// stays on one goroutine (same rationale as graph.SortParallel: a
// single-thread radix sort of a few thousand records is shorter than the
// fan-out that would split it).
const spillSortParallelMin = 1 << 15

// spillHist holds one 256-bucket histogram per k-mer byte.
type spillHist [16][256]int

// SortSpillRecords orders recs ascending by canonical k-mer using up to
// workers goroutines and the caller-provided scratch buffer (len(scratch)
// must be >= len(recs)). It is the LSD byte-radix sort graph.Sort uses, on
// 24-byte records: one counting pass per significant k-mer byte, the width
// taken from the keys themselves, ping-ponging between recs and scratch —
// no comparisons, no per-call allocation, so a reused (records, scratch)
// pair sorts every spill run with zero allocations on the sequential
// path. Ties (duplicate k-mers) keep their input order when sequential and
// may land in any order across worker counts; the downstream merge sums
// their counters commutatively, so the aggregate is deterministic.
func SortSpillRecords(recs, scratch []SpillRecord, workers int) {
	n := len(recs)
	if n <= spillSortSmall {
		insertionSortSpill(recs)
		return
	}
	var or dna.Kmer
	for i := range recs {
		or.Hi |= recs[i].Kmer.Hi
		or.Lo |= recs[i].Kmer.Lo
	}
	width := or.BitLen()
	tmp := scratch[:n]
	if workers <= 1 || n < spillSortParallelMin || width <= 8 {
		var hist spillHist
		if radixSortSpill(recs, tmp, width, &hist)%2 == 1 {
			copy(recs, tmp)
		}
		return
	}
	// The parallel body lives in its own function: its goroutine closures
	// capture the buffers, and sharing a stack frame with that capture
	// would heap-allocate the slice headers on the sequential path too.
	sortSpillParallel(recs, tmp, width, workers)
}

// sortSpillParallel scatters recs on the top eight significant key bits
// into tmp — bucket d lands in tmp[start[d]:start[d+1]], also its final
// span of recs — and the workers radix-sort the buckets on the remaining
// low bits.
func sortSpillParallel(recs, tmp []SpillRecord, width, workers int) {
	shift := uint(width - 8)
	var start [257]int
	for i := range recs {
		start[int(recs[i].Kmer.Bits8(shift))+1]++
	}
	for d := 1; d <= 256; d++ {
		start[d] += start[d-1]
	}
	next := start
	for i := range recs {
		d := recs[i].Kmer.Bits8(shift)
		tmp[next[d]] = recs[i]
		next[d]++
	}
	var (
		wg     sync.WaitGroup
		bucket atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hist spillHist
			for {
				d := int(bucket.Add(1)) - 1
				if d >= 256 {
					return
				}
				src, dst := tmp[start[d]:start[d+1]], recs[start[d]:start[d+1]]
				if radixSortSpill(src, dst, int(shift), &hist)%2 == 0 {
					copy(dst, src)
				}
			}
		}()
	}
	wg.Wait()
}

// radixSortSpill orders a ascending by the low width bits of its k-mers —
// the keys must agree on every higher bit — ping-ponging between a and tmp
// (len(tmp) == len(a)), and returns the number of scatter passes made: the
// result is in a when that is even, in tmp when odd. A byte on which all
// keys agree is skipped.
func radixSortSpill(a, tmp []SpillRecord, width int, hist *spillHist) (scatters int) {
	n := len(a)
	if n <= spillSortSmall {
		insertionSortSpill(a)
		return 0
	}
	passes := (width + 7) / 8
	h := hist[:passes]
	for p := range h {
		h[p] = [256]int{}
	}
	for i := range a {
		lo, hi := a[i].Kmer.Lo, a[i].Kmer.Hi
		for p := 0; p < passes && p < 8; p++ {
			h[p][uint8(lo>>(8*p))]++
		}
		for p := 8; p < passes; p++ {
			h[p][uint8(hi>>(8*(p-8)))]++
		}
	}
	src, dst := a, tmp
	for p := range h {
		off := &h[p]
		if off[src[0].Kmer.Bits8(uint(8*p))] == n {
			continue
		}
		shift := uint(8 * (p % 8))
		sum := 0
		for d, c := range off {
			off[d] = sum
			sum += c
		}
		if p < 8 {
			for i := range src {
				d := uint8(src[i].Kmer.Lo >> shift)
				dst[off[d]] = src[i]
				off[d]++
			}
		} else {
			for i := range src {
				d := uint8(src[i].Kmer.Hi >> shift)
				dst[off[d]] = src[i]
				off[d]++
			}
		}
		src, dst = dst, src
		scatters++
	}
	return scatters
}

func insertionSortSpill(a []SpillRecord) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Kmer.Less(a[j-1].Kmer); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
