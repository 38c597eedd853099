package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parahash/internal/dna"
)

// sortOracle is a stable comparison sort by Kmer.Compare — what the radix
// sort must agree with, duplicates and their counters included.
func sortOracle(vs []Vertex) {
	slices.SortStableFunc(vs, func(a, b Vertex) int { return a.Kmer.Compare(b.Kmer) })
}

// mergeOracle is the Merge the k-way merge replaced: concatenate, sort,
// collapse equal k-mers. It accepts unsorted input, which Merge no longer
// does, so tests also use it to sort-and-dedupe.
func mergeOracle(k int, subs ...*Subgraph) *Subgraph {
	var all []Vertex
	for _, s := range subs {
		all = append(all, s.Vertices...)
	}
	sortOracle(all)
	out := all[:0]
	for _, v := range all {
		if n := len(out); n > 0 && out[n-1].Kmer == v.Kmer {
			for j := range v.Counts {
				out[n-1].Counts[j] += v.Counts[j]
			}
		} else {
			out = append(out, v)
		}
	}
	return &Subgraph{K: k, Vertices: out}
}

// maskKmer clears the bits above 2k.
func maskKmer(km dna.Kmer, k int) dna.Kmer {
	switch {
	case 2*k < 64:
		return dna.Kmer{Lo: km.Lo & (1<<(2*k) - 1)}
	case 2*k == 64:
		return dna.Kmer{Lo: km.Lo}
	default:
		return dna.Kmer{Hi: km.Hi & (1<<(2*k-64) - 1), Lo: km.Lo}
	}
}

// sortShapes are the key distributions of the differential sort test.
// Duplicate k-mers are allowed (k=1 has four keys): the radix sort is
// stable, so it must agree with a stable comparison sort on counters too.
var sortShapes = []string{"random", "sorted", "reversed", "hi-only", "shared-low-bytes"}

func shapedVertices(rng *rand.Rand, shape string, n, k int) []Vertex {
	vs := make([]Vertex, n)
	for i := range vs {
		km := dna.Kmer{Hi: rng.Uint64(), Lo: rng.Uint64()}
		switch shape {
		case "hi-only":
			km.Lo = 0x0123456789abcdef
		case "shared-low-bytes":
			km.Lo = km.Lo&^0xffffffff | 0xdeadbeef
		}
		vs[i].Kmer = maskKmer(km, k)
		vs[i].Counts[0] = uint32(i) // tells equal k-mers apart: pins stability
	}
	switch shape {
	case "sorted":
		sortOracle(vs)
	case "reversed":
		sortOracle(vs)
		for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
			vs[i], vs[j] = vs[j], vs[i]
		}
	}
	return vs
}

func equalVertices(a, b []Vertex) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestSortMatchesComparisonSort(t *testing.T) {
	sizes := []int{0, 1, 2, 63, 64, 65, 8191, 8192, 100_000}
	ks := []int{1, 4, 27, 31, 32, 33, 63}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
		ks = []int{1, 27, 33, 63} // one key width in Lo, at the Hi/Lo boundary, in Hi
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range ks {
		for _, n := range sizes {
			for _, shape := range sortShapes {
				vs := shapedVertices(rng, shape, n, k)
				want := append([]Vertex(nil), vs...)
				sortOracle(want)
				workers := []int{1}
				if n >= SortParallelMin {
					workers = append(workers, 3) // below it SortParallel is Sort
				}
				for _, w := range workers {
					got := &Subgraph{K: k, Vertices: append([]Vertex(nil), vs...)}
					got.SortParallel(w)
					if i := equalVertices(got.Vertices, want); i >= 0 {
						t.Fatalf("k=%d n=%d %s workers=%d: differs from the comparison sort at vertex %d", k, n, shape, w, i)
					}
				}
			}
		}
	}
}

// TestSortParallelMatchesSort drives the top-byte scatter path at its
// threshold, across worker counts and key widths that put the top eight
// bits in Lo, across the Hi/Lo boundary, and in Hi.
func TestSortParallelMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ks := []int{5, 27, 34, 35, 36, 63}
	if testing.Short() {
		ks = []int{5, 35, 63} // top byte in Lo, across the boundary, in Hi
	}
	for _, n := range []int{SortParallelMin - 1, SortParallelMin, SortParallelMin + 4097} {
		for _, k := range ks {
			vs := shapedVertices(rng, "random", n, k)
			want := &Subgraph{K: k, Vertices: append([]Vertex(nil), vs...)}
			want.Sort()
			if i := unsortedAt(want.Vertices); i >= 0 && want.Vertices[i-1].Kmer != want.Vertices[i].Kmer {
				t.Fatalf("n=%d k=%d: Sort left vertex %d out of order", n, k, i)
			}
			for _, workers := range []int{2, 3, 8, 64} {
				got := &Subgraph{K: k, Vertices: append([]Vertex(nil), vs...)}
				got.SortParallel(workers)
				if i := equalVertices(got.Vertices, want.Vertices); i >= 0 {
					t.Fatalf("n=%d k=%d workers=%d: differs from Sort at vertex %d", n, k, workers, i)
				}
			}
		}
	}
}

// TestSortIgnoresDeclaredK: the pass count comes from the keys, so a
// Subgraph whose K understates them (a damaged header, a zero value) is
// still ordered by Kmer.Less.
func TestSortIgnoresDeclaredK(t *testing.T) {
	vs := shapedVertices(rand.New(rand.NewSource(3)), "random", 1000, 63)
	want := append([]Vertex(nil), vs...)
	sortOracle(want)
	g := &Subgraph{K: 3, Vertices: vs}
	g.Sort()
	if i := equalVertices(g.Vertices, want); i >= 0 {
		t.Fatalf("differs at vertex %d", i)
	}
}

// TestSortSortedInputIsFree pins the fast path parahashd and resume rely
// on: sorted input costs one read-only scan — no scatter pass, no
// allocation.
func TestSortSortedInputIsFree(t *testing.T) {
	vs := randomVertices(7, 50_000, 27)
	sortOracle(vs)
	for _, workers := range []int{1, 4} {
		if sortVertices(vs, workers) {
			t.Errorf("workers=%d: sorted input was scattered", workers)
		}
		g := &Subgraph{K: 27, Vertices: vs}
		if a := testing.AllocsPerRun(10, func() { g.SortParallel(workers) }); a != 0 {
			t.Errorf("workers=%d: %v allocations sorting sorted input", workers, a)
		}
	}
	vs[100], vs[200] = vs[200], vs[100]
	if !sortVertices(vs, 1) {
		t.Error("unsorted input was not scattered")
	}
	if err := (&Subgraph{K: 27, Vertices: vs}).CheckSorted(); err != nil {
		t.Errorf("after sorting: %v", err)
	}
}

func TestCheckSorted(t *testing.T) {
	vs := randomVertices(8, 100, 27)
	sortOracle(vs)
	g := &Subgraph{K: 27, Vertices: vs}
	if err := g.CheckSorted(); err != nil {
		t.Fatalf("sorted: %v", err)
	}
	g.Vertices = append(g.Vertices, g.Vertices[99])
	if err := g.CheckSorted(); !errors.Is(err, ErrUnsorted) {
		t.Errorf("duplicate k-mer: err = %v, want ErrUnsorted", err)
	}
	g.Vertices = g.Vertices[:100]
	g.Vertices[3], g.Vertices[4] = g.Vertices[4], g.Vertices[3]
	if err := g.CheckSorted(); !errors.Is(err, ErrUnsorted) {
		t.Errorf("swapped pair: err = %v, want ErrUnsorted", err)
	}
}

// verticesFromBytes decodes fuzz input: 16 key bytes + one counter byte per
// vertex, keys masked to k.
func verticesFromBytes(data []byte, k int) []Vertex {
	const rec = 17
	vs := make([]Vertex, len(data)/rec)
	for i := range vs {
		b := data[i*rec:]
		km := dna.Kmer{Hi: binary.LittleEndian.Uint64(b[0:]), Lo: binary.LittleEndian.Uint64(b[8:])}
		vs[i] = Vertex{Kmer: maskKmer(km, k), Counts: [8]uint32{uint32(b[16])}}
	}
	return vs
}

func bytesFromVertices(vs []Vertex) []byte {
	out := make([]byte, 0, 17*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, v.Kmer.Hi)
		out = binary.LittleEndian.AppendUint64(out, v.Kmer.Lo)
		out = append(out, byte(v.Counts[0]))
	}
	return out
}

func FuzzSortVertices(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 27, 33, 63} {
		for _, shape := range sortShapes {
			f.Add(bytesFromVertices(shapedVertices(rng, shape, 65, k)), uint8(k), uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, k, workers uint8) {
		vs := verticesFromBytes(data, 1+int(k)%dna.MaxK)
		want := append([]Vertex(nil), vs...)
		sortOracle(want)
		// The bucket path, which sortVertices reserves for inputs larger
		// than a fuzzer will grow, gets the same input directly.
		if width := 2 * (1 + int(k)%dna.MaxK); width > 8 {
			par := append([]Vertex(nil), vs...)
			radixSortParallel(par, make([]Vertex, len(par)), width, 1+int(workers)%8)
			if i := equalVertices(par, want); i >= 0 {
				t.Fatalf("radixSortParallel differs from the comparison sort at vertex %d", i)
			}
		}
		sortVertices(vs, 1)
		if i := equalVertices(vs, want); i >= 0 {
			t.Fatalf("differs from the comparison sort at vertex %d", i)
		}
	})
}

func randomVertices(seed int64, n, k int) []Vertex {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[dna.Kmer]bool, n)
	out := make([]Vertex, 0, n)
	bases := make([]dna.Base, k)
	for len(out) < n {
		for j := range bases {
			bases[j] = dna.Base(rng.Intn(4))
		}
		canon, _ := dna.KmerFromBases(bases, k).Canonical(k)
		if seen[canon] {
			continue // vertex k-mers are unique within a subgraph
		}
		seen[canon] = true
		v := Vertex{Kmer: canon}
		for c := range v.Counts {
			v.Counts[c] = rng.Uint32() % 7
		}
		out = append(out, v)
	}
	return out
}

// BenchmarkSortParallel sorts one incore-shaped partition (12.7 k canonical
// 27-mers in hash order) and one whole-graph-sized slice, on one goroutine
// and on every CPU.
func BenchmarkSortParallel(b *testing.B) {
	for _, n := range []int{12_700, 1 << 18} {
		vs := randomVertices(99, n, 27)
		work := make([]Vertex, n)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, vs)
					g := &Subgraph{K: 27, Vertices: work}
					g.SortParallel(workers)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
			})
		}
	}
}
