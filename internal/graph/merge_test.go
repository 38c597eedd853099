package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"parahash/internal/dna"
)

// sortedRun returns n strictly ascending vertices drawn from keySpace keys
// of a k-mer space (n <= keySpace).
func sortedRun(rng *rand.Rand, k, n int, keySpace uint64) *Subgraph {
	seen := make(map[uint64]bool, n)
	vs := make([]Vertex, 0, n)
	for len(vs) < n {
		key := rng.Uint64() % keySpace
		if seen[key] {
			continue
		}
		seen[key] = true
		v := Vertex{Kmer: dna.Kmer{Lo: key}}
		for c := range v.Counts {
			v.Counts[c] = rng.Uint32()
		}
		vs = append(vs, v)
	}
	sortOracle(vs)
	return &Subgraph{K: k, Vertices: vs}
}

// mergeCases are the run shapes of the differential Merge test.
func mergeCases(rng *rand.Rand, k int) map[string][]*Subgraph {
	const wide = 1 << 40
	cases := map[string][]*Subgraph{
		"no-inputs":  {},
		"all-empty":  {{K: k}, {K: k}},
		"single-run": {sortedRun(rng, k, 20_000, wide)},
	}
	// The incore shape: many similar runs interleaving over the key space,
	// no k-mer shared, a few inputs empty.
	var disjoint []*Subgraph
	whole := sortedRun(rng, k, 40_000, wide).Vertices
	for r := 0; r < 16; r++ {
		disjoint = append(disjoint, &Subgraph{K: k})
	}
	for _, v := range whole {
		if r := rng.Intn(16); r%5 != 0 {
			disjoint[r].Vertices = append(disjoint[r].Vertices, v)
		}
	}
	cases["disjoint-with-empty"] = disjoint

	giant := []*Subgraph{sortedRun(rng, k, 30_000, wide)}
	for r := 0; r < 200; r++ {
		giant = append(giant, sortedRun(rng, k, rng.Intn(4), wide))
	}
	cases["giant-and-tiny"] = giant

	// A key space so narrow that every k-mer is in most runs: whichever
	// k-mers the splitters land on, copies of them sit on both sides of
	// every run's cut candidates.
	var overlap []*Subgraph
	for r := 0; r < 12; r++ {
		overlap = append(overlap, sortedRun(rng, k, 3000, 4096))
	}
	cases["overlapping"] = overlap

	// Runs that tile the key space instead of interleaving.
	var tiled []*Subgraph
	for r := 0; r < 8; r++ {
		run := sortedRun(rng, k, 2500, 1<<20)
		for i := range run.Vertices {
			run.Vertices[i].Kmer.Lo += uint64(r) << 20
		}
		tiled = append(tiled, run)
	}
	cases["tiled"] = tiled
	return cases
}

func TestMergeMatchesConcatSortOracle(t *testing.T) {
	const k = 27
	rng := rand.New(rand.NewSource(21))
	for name, subs := range mergeCases(rng, k) {
		want := mergeOracle(k, subs...)
		for workers := 1; workers <= 8; workers++ {
			// Fewer ranges than workers, as many, and many more.
			for _, parts := range []int{1, workers, 5 * workers} {
				got, err := mergeRanges(k, subs, parts, workers)
				if err != nil {
					t.Fatalf("%s parts=%d workers=%d: %v", name, parts, workers, err)
				}
				if i := equalVertices(got.Vertices, want.Vertices); i >= 0 {
					t.Fatalf("%s parts=%d workers=%d: %d vertices, oracle %d, first difference at %d",
						name, parts, workers, len(got.Vertices), len(want.Vertices), i)
				}
			}
		}
		// The public entry point, at every GOMAXPROCS it may run under.
		for procs := 1; procs <= 8; procs++ {
			prev := runtime.GOMAXPROCS(procs)
			got, err := Merge(k, subs...)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
			}
			if i := equalVertices(got.Vertices, want.Vertices); i >= 0 {
				t.Fatalf("%s GOMAXPROCS=%d: first difference at %d", name, procs, i)
			}
		}
	}
}

// TestMergeSumsStraddlingKmerOnce pins the splitter argument directly: one
// k-mer present in every run, surrounded by enough others that it becomes
// a splitter, must come out once with every run's counters added.
func TestMergeSumsStraddlingKmerOnce(t *testing.T) {
	const k, runs, each = 27, 8, 1000
	shared := dna.Kmer{Lo: each / 2 * 10}
	var subs []*Subgraph
	for r := 0; r < runs; r++ {
		s := &Subgraph{K: k}
		for i := 0; i < each; i++ {
			// Run r holds the multiples of 10 plus r, except the shared key.
			km := dna.Kmer{Lo: uint64(i*10 + r)}
			if i == each/2 {
				km = shared
			}
			s.Vertices = append(s.Vertices, Vertex{Kmer: km, Counts: [8]uint32{1, uint32(r)}})
		}
		subs = append(subs, s)
	}
	for parts := 1; parts <= 8; parts++ {
		got, err := mergeRanges(k, subs, parts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(got.Vertices); n != runs*each-(runs-1) {
			t.Fatalf("parts=%d: %d vertices, want %d", parts, n, runs*each-(runs-1))
		}
		v, ok := got.Lookup(shared)
		if !ok || v.Counts[0] != runs || v.Counts[1] != runs*(runs-1)/2 {
			t.Fatalf("parts=%d: shared k-mer = %+v, %v", parts, v, ok)
		}
		if err := got.CheckSorted(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
	}
}

// TestMergeRejectsUnsortedInput: every adjacent pair of every input is
// checked by some range, so damage anywhere — the head of a run, a slice
// boundary, the tail copied in bulk — fails typed for every range count.
func TestMergeRejectsUnsortedInput(t *testing.T) {
	const k = 27
	rng := rand.New(rand.NewSource(22))
	fresh := func() []*Subgraph {
		var subs []*Subgraph
		for r := 0; r < 5; r++ {
			subs = append(subs, sortedRun(rng, k, 4000, 1<<40))
		}
		return subs
	}
	for trial := 0; trial < 30; trial++ {
		subs := fresh()
		vs := subs[rng.Intn(len(subs))].Vertices
		i := 1 + rng.Intn(len(vs)-1)
		switch trial % 3 {
		case 0:
			vs[i-1], vs[i] = vs[i], vs[i-1]
		case 1:
			vs[i].Kmer = vs[i-1].Kmer // duplicate inside one run
		case 2:
			vs[i].Kmer = dna.Kmer{} // far out of place: derails the binary searches too
		}
		for parts := 1; parts <= 8; parts++ {
			if _, err := mergeRanges(k, subs, parts, 1+parts%3); !errors.Is(err, ErrUnsorted) {
				t.Fatalf("trial %d parts=%d damage at %d: err = %v, want ErrUnsorted", trial, parts, i, err)
			}
		}
	}
}

func FuzzMerge(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	seed := func(subs []*Subgraph, parts uint8) {
		var all []Vertex
		var lens []byte
		for _, s := range subs {
			all = append(all, s.Vertices...)
			lens = append(lens, byte(len(s.Vertices)))
		}
		f.Add(bytesFromVertices(all), lens, parts)
	}
	seed(nil, 1)
	seed([]*Subgraph{{}, sortedRun(rng, 27, 40, 64), {}}, 3)
	seed([]*Subgraph{sortedRun(rng, 27, 200, 1<<40), sortedRun(rng, 27, 2, 1<<40), sortedRun(rng, 27, 1, 1<<40)}, 4)
	seed([]*Subgraph{sortedRun(rng, 27, 60, 64), sortedRun(rng, 27, 60, 64), sortedRun(rng, 27, 60, 64)}, 8)
	// data is cut into runs of lens[i] (mod what is left) vertices; each run
	// is sorted and deduplicated first unless its length byte is odd and it
	// was unsorted, in which case Merge must refuse it.
	f.Fuzz(func(t *testing.T, data, lens []byte, parts uint8) {
		const k = 27
		all := verticesFromBytes(data, k)
		var subs []*Subgraph
		damaged := false
		for _, l := range lens {
			n := min(int(l), len(all))
			run := &Subgraph{K: k, Vertices: all[:n:n]}
			all = all[n:]
			if l%2 == 1 && unsortedAt(run.Vertices) >= 0 {
				damaged = true
			} else {
				run = mergeOracle(k, run)
			}
			subs = append(subs, run)
		}
		// One worker keeps the coverage the fuzzer steers by deterministic;
		// the ranges are what vary.
		got, err := mergeRanges(k, subs, 1+int(parts)%8, 1)
		if damaged {
			if !errors.Is(err, ErrUnsorted) {
				t.Fatalf("unsorted input: err = %v, want ErrUnsorted", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if i := equalVertices(got.Vertices, mergeOracle(k, subs...).Vertices); i >= 0 {
			t.Fatalf("differs from the concat + sort oracle at vertex %d", i)
		}
	})
}

// BenchmarkMerge is the incore shape: 64 sorted, disjoint partition
// subgraphs of 12.7 k vertices each into one 0.81 M-vertex graph.
func BenchmarkMerge(b *testing.B) {
	const k, runs, each = 27, 64, 12_700
	all := randomVertices(5, runs*each, k)
	subs := make([]*Subgraph, runs)
	for r := range subs {
		subs[r] = &Subgraph{K: k, Vertices: all[r*each : (r+1)*each]}
		subs[r].Sort()
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Merge(k, subs...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(runs*each), "ns/vertex")
		})
	}
}
