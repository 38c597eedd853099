package graph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"parahash/internal/dna"
)

// Vertices are sorted as the integers they are. A k-mer is a 2k-bit
// number, so an LSD byte-radix sort orders n of them in ceil(2k/8)
// counting passes of linear work each — no comparisons, no reflection —
// where a comparison sort pays n·log n calls through a closure.

// sortSmall is the length up to which insertion sort beats setting up the
// radix histograms.
const sortSmall = 32

// SortParallelMin is the vertex count below which SortParallel stays on one
// goroutine: a single-thread radix sort of a few thousand vertices is
// shorter than the fan-out that would split it.
const SortParallelMin = 1 << 15

// keyBytes is the width of a packed k-mer.
const keyBytes = 16

// radixHist holds one 256-bucket histogram per key byte.
type radixHist [keyBytes][256]int

// ErrUnsorted reports vertices that are not in strictly ascending k-mer
// order where the caller's contract requires it (Merge inputs, published
// graph files).
var ErrUnsorted = errors.New("graph: vertices not in strictly ascending k-mer order")

// Sort orders the vertices ascending by k-mer; construction emits hash
// order. Already sorted input returns after one read-only scan.
func (g *Subgraph) Sort() { sortVertices(g.Vertices, 1) }

// SortParallel is Sort on up to workers goroutines: one scatter on the top
// eight significant key bits, then the 256 buckets — disjoint, already in
// their final regions — are radix-sorted independently.
func (g *Subgraph) SortParallel(workers int) { sortVertices(g.Vertices, workers) }

// CheckSorted returns an error wrapping ErrUnsorted unless the vertices are
// in strictly ascending k-mer order — what Lookup's binary search and
// Merge's inputs require.
func (g *Subgraph) CheckSorted() error {
	if i := unsortedAt(g.Vertices); i >= 0 {
		return fmt.Errorf("%w: vertex %d", ErrUnsorted, i)
	}
	return nil
}

// unsortedAt returns the index of the first vertex whose k-mer is not
// greater than its predecessor's, or -1 when vs is strictly ascending.
func unsortedAt(vs []Vertex) int {
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].Kmer.Less(vs[i].Kmer) {
			return i
		}
	}
	return -1
}

// vertexBufs recycles partition-sized vertex slices — the buffer Step 2
// extracts a table into, the sort's scatter buffer, a spill merge's output —
// so a build that constructs one partition after another holds a few of
// them, not one per partition.
var vertexBufs sync.Pool

// vertexSlackMax bounds the spare room GetVertices adds to a new slice
// (3 MiB): the slack is for partition-sized buffers that are used again, not
// for the one sort of a whole graph.
const vertexSlackMax = 1 << 16

// GetVertices returns an empty vertex slice with room for n, recycled when
// the pool holds one large enough. A new one is made a quarter larger than
// asked, up to vertexSlackMax: partitions differ in size by about that much,
// and a slice that only just fit the last one would be dropped for the next.
func GetVertices(n int) []Vertex {
	if buf, _ := vertexBufs.Get().(*[]Vertex); buf != nil && cap(*buf) >= n {
		return (*buf)[:0]
	}
	return make([]Vertex, 0, n+min(n/4, vertexSlackMax))
}

// PutVertices gives a slice back for GetVertices to hand out again. Nothing
// may read or write the slice's array afterwards: only its one owner may
// call this — for a subgraph, whoever constructed it and has not kept it.
func PutVertices(vs []Vertex) {
	if cap(vs) > 0 {
		vertexBufs.Put(&vs)
	}
}

// sortVertices sorts vs in place and reports whether any scatter pass ran
// (tests pin that sorted input costs none). The key width comes from the
// data, not from a declared k: the passes cover every bit any key has set,
// so the order is Kmer.Less's whatever the caller's K says.
func sortVertices(vs []Vertex, workers int) (scattered bool) {
	n := len(vs)
	if unsortedAt(vs) < 0 {
		return false
	}
	if n <= sortSmall {
		insertionSort(vs)
		return false
	}
	var or dna.Kmer
	for i := range vs {
		or.Hi |= vs[i].Kmer.Hi
		or.Lo |= vs[i].Kmer.Lo
	}
	width := or.BitLen()

	tmp := GetVertices(n)[:n]
	defer PutVertices(tmp)

	if workers <= 1 || n < SortParallelMin || width <= 8 {
		var hist radixHist
		scatters := radixSort(vs, tmp, width, &hist)
		if scatters%2 == 1 {
			copy(vs, tmp)
		}
		return scatters > 0
	}
	radixSortParallel(vs, tmp, width, workers)
	return true
}

// radixSortParallel sorts vs (keys of width > 8 bits, len(tmp) == len(vs))
// in place: a scatter on the top eight significant bits into tmp leaves
// bucket d in tmp[start[d]:start[d+1]], which is also its final span of
// vs, and the workers radix-sort the buckets on the remaining low bits.
func radixSortParallel(vs, tmp []Vertex, width, workers int) {
	shift := uint(width - 8)
	var start [257]int
	for i := range vs {
		start[int(vs[i].Kmer.Bits8(shift))+1]++
	}
	for d := 1; d <= 256; d++ {
		start[d] += start[d-1]
	}
	next := start
	for i := range vs {
		d := vs[i].Kmer.Bits8(shift)
		tmp[next[d]] = vs[i]
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
			var hist radixHist
			for {
				d := int(bucket.Add(1)) - 1
				if d >= 256 {
					return
				}
				src, dst := tmp[start[d]:start[d+1]], vs[start[d]:start[d+1]]
				if radixSort(src, dst, int(shift), &hist)%2 == 0 {
					copy(dst, src)
				}
			}
		}()
	}
	wg.Wait()
}

// radixSort orders a ascending by the low width bits of its k-mers — the
// keys must agree on every higher bit — ping-ponging between a and tmp
// (len(tmp) == len(a)). It returns the number of scatter passes made: the
// result is in a when that is even, in tmp when odd. One read pass fills
// the histograms of every key byte; a byte on which all keys agree is
// skipped, so shared prefixes and zero bytes cost nothing.
func radixSort(a, tmp []Vertex, width int, hist *radixHist) (scatters int) {
	n := len(a)
	if n <= sortSmall {
		insertionSort(a)
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

func insertionSort(a []Vertex) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && v.Kmer.Less(a[j-1].Kmer); j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}
