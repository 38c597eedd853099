package graph

import (
	"errors"
	"math/rand"
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

// unsortedCases damages one input of a sorted set in each way Merge must
// refuse: a swapped pair, a k-mer repeated inside one input, and a k-mer
// far out of place — at the head of an input, in its middle and at its tail.
func unsortedCases(rng *rand.Rand, k int) map[string][]*Subgraph {
	cases := map[string][]*Subgraph{}
	for _, damage := range []string{"swapped", "duplicate", "out-of-place"} {
		for _, where := range []string{"head", "middle", "tail"} {
			var subs []*Subgraph
			for r := 0; r < 5; r++ {
				subs = append(subs, sortedRun(rng, k, 4000, 1<<40))
			}
			vs := subs[rng.Intn(len(subs))].Vertices
			i := map[string]int{"head": 1, "middle": len(vs) / 2, "tail": len(vs) - 1}[where]
			switch damage {
			case "swapped":
				vs[i-1], vs[i] = vs[i], vs[i-1]
			case "duplicate":
				vs[i].Kmer = vs[i-1].Kmer
			case "out-of-place":
				vs[i].Kmer = dna.Kmer{}
			}
			cases["unsorted-"+damage+"-"+where] = subs
		}
	}
	return cases
}

// sharedKmerCase holds one k-mer in every input among a thousand others
// each: it must come out once, with every input's counters added.
func sharedKmerCase(k int) []*Subgraph {
	const runs, each = 8, 1000
	var subs []*Subgraph
	for r := 0; r < runs; r++ {
		s := &Subgraph{K: k}
		for i := 0; i < each; i++ {
			// Input r holds the multiples of 10 plus r, except the shared key.
			km := dna.Kmer{Lo: uint64(i*10 + r)}
			if i == each/2 {
				km = dna.Kmer{Lo: each / 2 * 10}
			}
			s.Vertices = append(s.Vertices, Vertex{Kmer: km, Counts: [8]uint32{1, uint32(r)}})
		}
		subs = append(subs, s)
	}
	return subs
}

// TestMergeMatchesConcatSortOracle holds Merge to the concatenate, sort and
// sum oracle on every input shape, and to ErrUnsorted on every damaged one.
func TestMergeMatchesConcatSortOracle(t *testing.T) {
	const k = 27
	rng := rand.New(rand.NewSource(21))
	cases := mergeCases(rng, k)
	cases["shared-kmer-in-every-input"] = sharedKmerCase(k)
	for name, subs := range cases {
		t.Run(name, func(t *testing.T) {
			want := mergeOracle(k, subs...)
			got, err := Merge(k, subs...)
			if err != nil {
				t.Fatal(err)
			}
			if i := equalVertices(got.Vertices, want.Vertices); i >= 0 {
				t.Fatalf("%d vertices, oracle %d, first difference at %d", len(got.Vertices), len(want.Vertices), i)
			}
		})
	}
	for name, subs := range unsortedCases(rng, k) {
		t.Run(name, func(t *testing.T) {
			if _, err := Merge(k, subs...); !errors.Is(err, ErrUnsorted) {
				t.Fatalf("err = %v, want ErrUnsorted", err)
			}
		})
	}
}

func FuzzMerge(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	seed := func(subs []*Subgraph) {
		var all []Vertex
		var lens []byte
		for _, s := range subs {
			all = append(all, s.Vertices...)
			lens = append(lens, byte(len(s.Vertices)))
		}
		f.Add(bytesFromVertices(all), lens)
	}
	seed(nil)
	seed([]*Subgraph{{}, sortedRun(rng, 27, 40, 64), {}})
	seed([]*Subgraph{sortedRun(rng, 27, 200, 1<<40), sortedRun(rng, 27, 2, 1<<40), sortedRun(rng, 27, 1, 1<<40)})
	seed([]*Subgraph{sortedRun(rng, 27, 60, 64), sortedRun(rng, 27, 60, 64), sortedRun(rng, 27, 60, 64)})
	// data is cut into runs of lens[i] (mod what is left) vertices; each run
	// is sorted and deduplicated first unless its length byte is odd and it
	// was unsorted, in which case Merge must refuse it.
	f.Fuzz(func(t *testing.T, data, lens []byte) {
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
		got, err := Merge(k, subs...)
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(k, subs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(runs*each), "ns/vertex")
}
