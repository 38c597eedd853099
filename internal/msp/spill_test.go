package msp

import (
	"math/rand"
	"sort"
	"testing"

	"parahash/internal/dna"
)

func TestSpillEdgeCodecRoundTrip(t *testing.T) {
	sides := []int8{NoBase, 0, 1, 2, 3}
	for _, l := range sides {
		for _, r := range sides {
			gl, gr := DecodeSpillEdge(EncodeSpillEdge(l, r))
			if gl != l || gr != r {
				t.Errorf("round trip (%d,%d) = (%d,%d)", l, r, gl, gr)
			}
		}
	}
}

func TestAppendSpillRecordsMatchesNaiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const k, p = 15, 6
	for trial := 0; trial < 50; trial++ {
		read := randomRead(rng, k+rng.Intn(60))
		for _, sk := range SuperkmersFromRead(nil, read, k, p) {
			// Folded superkmers stamp their weight on every record.
			sk.Dup = uint32(trial % 3)
			var want []SpillRecord
			ForEachKmerEdgeNaive(sk, k, func(e KmerEdge) {
				want = append(want, SpillRecord{Kmer: e.Canon, Edge: EncodeSpillEdge(e.Left, e.Right), Weight: 1 + sk.Dup})
			})
			got := AppendSpillRecords(nil, sk, k)
			if len(got) != len(want) {
				t.Fatalf("superkmer %v: %d records, want %d", sk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("superkmer %v record %d: %+v, want %+v", sk, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortSpillRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 1000, 1 << 13, 1<<14 + 17, spillSortParallelMin + 5} {
		for _, workers := range []int{1, 2, 4, 7} {
			recs := make([]SpillRecord, n)
			for i := range recs {
				recs[i] = SpillRecord{
					// A small key space forces duplicate k-mers into the sort.
					Kmer: dna.Kmer{Hi: uint64(rng.Intn(4)), Lo: uint64(rng.Intn(64))},
					Edge: uint8(rng.Intn(256)),
				}
			}
			want := append([]SpillRecord(nil), recs...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Kmer.Less(want[j].Kmer) })

			scratch := make([]SpillRecord, n)
			SortSpillRecords(recs, scratch, workers)
			for i := 1; i < n; i++ {
				if recs[i].Kmer.Less(recs[i-1].Kmer) {
					t.Fatalf("n=%d workers=%d: out of order at %d", n, workers, i)
				}
			}
			// The multiset must be preserved: compare against the oracle
			// ignoring tie order by checking k-mer sequence plus per-kmer
			// edge-byte multisets.
			for i := 0; i < n; {
				j := i
				for j < n && recs[j].Kmer == recs[i].Kmer {
					j++
				}
				if want[i].Kmer != recs[i].Kmer || (j < n && want[j].Kmer == recs[i].Kmer) ||
					(j == n && len(want) != n) {
					t.Fatalf("n=%d workers=%d: k-mer run mismatch at %d", n, workers, i)
				}
				gotEdges := make(map[uint8]int)
				wantEdges := make(map[uint8]int)
				for x := i; x < j; x++ {
					gotEdges[recs[x].Edge]++
					wantEdges[want[x].Edge]++
				}
				for e, c := range wantEdges {
					if gotEdges[e] != c {
						t.Fatalf("n=%d workers=%d: edge multiset mismatch for kmer at %d", n, workers, i)
					}
				}
				i = j
			}
		}
	}
}

// TestSpillZeroAllocs guards the spill hot path: filling a pre-sized run
// buffer and sorting it sequentially must not allocate.
func TestSpillZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k, p = 15, 6
	read := randomRead(rng, 400)
	sks := SuperkmersFromRead(nil, read, k, p)

	buf := make([]SpillRecord, 0, 4096)
	if avg := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, sk := range sks {
			buf = AppendSpillRecords(buf, sk, k)
		}
	}); avg != 0 {
		t.Errorf("AppendSpillRecords allocates %.1f per run, want 0", avg)
	}

	recs := make([]SpillRecord, 4096)
	scratch := make([]SpillRecord, len(recs))
	if avg := testing.AllocsPerRun(100, func() {
		for i := range recs {
			recs[i] = SpillRecord{Kmer: dna.Kmer{Lo: uint64(i * 2654435761)}}
		}
		SortSpillRecords(recs, scratch, 1)
	}); avg != 0 {
		t.Errorf("SortSpillRecords allocates %.1f per run, want 0", avg)
	}
}
