package hashtable

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"parahash/internal/dna"
	"parahash/internal/msp"
)

// randomEdges builds a workload of canonical k-mer observations with
// duplicates, plus a reference count map.
func randomEdges(seed int64, distinct, total, k int) ([]msp.KmerEdge, map[dna.Kmer]*[8]uint32) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]dna.Kmer, distinct)
	for i := range pool {
		bases := make([]dna.Base, k)
		for j := range bases {
			bases[j] = dna.Base(rng.Intn(4))
		}
		canon, _ := dna.KmerFromBases(bases, k).Canonical(k)
		pool[i] = canon
	}
	edges := make([]msp.KmerEdge, total)
	ref := make(map[dna.Kmer]*[8]uint32)
	for i := range edges {
		km := pool[rng.Intn(len(pool))]
		e := msp.KmerEdge{Canon: km, Left: msp.NoBase, Right: msp.NoBase}
		if rng.Intn(4) > 0 {
			e.Left = int8(rng.Intn(4))
		}
		if rng.Intn(4) > 0 {
			e.Right = int8(rng.Intn(4))
		}
		edges[i] = e
		c := ref[km]
		if c == nil {
			c = &[8]uint32{}
			ref[km] = c
		}
		if e.Left != msp.NoBase {
			c[e.Left]++
		}
		if e.Right != msp.NoBase {
			c[4+e.Right]++
		}
	}
	return edges, ref
}

func checkAgainstRef(t *testing.T, tab interface {
	Len() int
	ForEach(func(Entry))
}, ref map[dna.Kmer]*[8]uint32) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("distinct = %d, want %d", tab.Len(), len(ref))
	}
	seen := 0
	tab.ForEach(func(e Entry) {
		seen++
		want, ok := ref[e.Kmer]
		if !ok {
			t.Fatalf("unexpected vertex %v", e.Kmer)
		}
		if *want != e.Counts {
			t.Fatalf("vertex %v counts %v, want %v", e.Kmer, e.Counts, *want)
		}
	})
	if seen != len(ref) {
		t.Fatalf("ForEach visited %d entries, want %d", seen, len(ref))
	}
}

func TestTableSequentialCorrectness(t *testing.T) {
	edges, ref := randomEdges(50, 500, 5000, 27)
	tab, err := New(27, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRef(t, tab, ref)
}

func TestTableConcurrentCorrectness(t *testing.T) {
	edges, ref := randomEdges(51, 800, 20000, 27)
	tab, err := New(27, 4096)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += workers {
				if err := tab.InsertEdge(edges[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkAgainstRef(t, tab, ref)

	m := tab.Metrics().Snapshot()
	if got := m.Inserts; got != int64(len(ref)) {
		t.Errorf("Inserts = %d, want %d", got, len(ref))
	}
	if got := m.Updates; got != int64(len(edges)-len(ref)) {
		t.Errorf("Updates = %d, want %d", got, len(edges)-len(ref))
	}
}

func TestTableLookup(t *testing.T) {
	tab, err := New(27, 64)
	if err != nil {
		t.Fatal(err)
	}
	km, _ := dna.KmerFromString("ACGTACGTACGTACGTACGTACGTACG").Canonical(27)
	e := msp.KmerEdge{Canon: km, Left: 2, Right: msp.NoBase}
	if err := tab.InsertEdge(e); err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertEdge(e); err != nil {
		t.Fatal(err)
	}
	got, ok := tab.Lookup(km)
	if !ok {
		t.Fatal("inserted vertex not found")
	}
	if got.Counts[2] != 2 {
		t.Errorf("left-G count = %d, want 2", got.Counts[2])
	}
	if got.Multiplicity() != 2 || got.Degree() != 1 {
		t.Errorf("Multiplicity=%d Degree=%d", got.Multiplicity(), got.Degree())
	}
	other, _ := dna.KmerFromString("AAAAAAAAAAAAAAAAAAAAAAAAAAA").Canonical(27)
	if _, ok := tab.Lookup(other); ok {
		t.Error("absent vertex found")
	}
}

func TestTableFull(t *testing.T) {
	tab, err := New(27, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	var lastErr error
	for i := 0; i < 100; i++ {
		bases := make([]dna.Base, 27)
		for j := range bases {
			bases[j] = dna.Base(rng.Intn(4))
		}
		canon, _ := dna.KmerFromBases(bases, 27).Canonical(27)
		lastErr = tab.InsertEdge(msp.KmerEdge{Canon: canon, Left: msp.NoBase, Right: msp.NoBase})
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", lastErr)
	}
}

func TestTableGrow(t *testing.T) {
	edges, ref := randomEdges(53, 300, 2000, 27)
	tab, err := New(27, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		err := tab.InsertEdge(e)
		if errors.Is(err, ErrTableFull) {
			if tab, err = tab.Grow(); err != nil {
				t.Fatal(err)
			}
			err = tab.InsertEdge(e)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRef(t, tab, ref)
}

func TestTableReset(t *testing.T) {
	edges, _ := randomEdges(54, 100, 500, 27)
	tab, err := New(27, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	count := 0
	tab.ForEach(func(Entry) { count++ })
	if count != 0 {
		t.Fatalf("entries after Reset = %d", count)
	}
	// Table remains usable.
	edges2, ref2 := randomEdges(55, 100, 500, 27)
	for _, e := range edges2 {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRef(t, tab, ref2)
}

// TestResetToMatchesNew recycles one table across sizes — down to a smaller
// slot count, back up to its own, never beyond its allocation — and holds
// each round to a new table of the asked size fed the same edges: the same
// capacity, footprint, entries and every counter, probes included.
func TestResetToMatchesNew(t *testing.T) {
	tab, err := New(27, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for round, capacity := range []int{900, 5000, 100, 4096} {
		if !Reusable(tab, 27, capacity) {
			t.Fatalf("round %d: a %d-slot table is not reusable at capacity %d", round, tab.Capacity(), capacity)
		}
		edges, ref := randomEdges(int64(60+round), capacity/8, capacity/2, 27)
		tab.ResetTo(capacity)
		fresh, err := New(27, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if err := tab.InsertEdge(e); err != nil {
				t.Fatal(err)
			}
			if err := fresh.InsertEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		if tab.Capacity() != fresh.Capacity() || tab.MemoryBytes() != fresh.MemoryBytes() {
			t.Fatalf("round %d: recycled table has %d slots, %d bytes; a new one %d, %d",
				round, tab.Capacity(), tab.MemoryBytes(), fresh.Capacity(), fresh.MemoryBytes())
		}
		if got, want := tab.Metrics().Snapshot(), fresh.Metrics().Snapshot(); got != want {
			t.Fatalf("round %d: recycled table counters %+v, a new one's %+v", round, got, want)
		}
		checkAgainstRef(t, tab, ref)
	}
	for _, tc := range []struct {
		k, capacity int
	}{{27, 8193}, {31, 100}, {27, 0}} {
		if Reusable(tab, tc.k, tc.capacity) {
			t.Fatalf("an 8192-slot k=27 table is reusable for k=%d, capacity %d", tc.k, tc.capacity)
		}
	}
}

func TestResetClearsMetrics(t *testing.T) {
	edges, _ := randomEdges(56, 50, 300, 27)
	tab, err := New(27, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	before := tab.Metrics().Snapshot()
	if before.Inserts == 0 || before.Probes == 0 {
		t.Fatalf("expected non-zero metrics before Reset, got %+v", before)
	}
	tab.Reset()
	// Reset must zero the counters: a reused table previously reported
	// cumulative figures as if they belonged to the new partition.
	if after := tab.Metrics().Snapshot(); after != (Snapshot{}) {
		t.Errorf("metrics after Reset = %+v, want zero", after)
	}
	// Callers wanting cumulative figures snapshot before Reset; the
	// snapshot must survive the wipe.
	if before.Inserts == 0 {
		t.Error("pre-Reset snapshot was clobbered")
	}
}

func TestSizeForKmers(t *testing.T) {
	// Paper defaults λ=2, α=0.65 → ~0.77 N_kmer slots.
	got := SizeForKmers(1_000_000, 2, 0.65)
	if got < 700_000 || got > 800_000 {
		t.Errorf("SizeForKmers = %d, want ~769k", got)
	}
	if got := SizeForKmers(0, 2, 0.65); got != 8 {
		t.Errorf("empty partition size = %d, want 8", got)
	}
}

func TestSizeForKmersEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name          string
		nkmers        int64
		lambda, alpha float64
		want          int
	}{
		{"negative kmers", -5, 2, 0.65, 8},
		{"nan lambda falls back to default", 1000, nan, 0.65, SizeForKmers(1000, 2, 0.65)},
		{"inf lambda falls back to default", 1000, math.Inf(1), 0.65, SizeForKmers(1000, 2, 0.65)},
		{"zero lambda falls back to default", 1000, 0, 0.65, SizeForKmers(1000, 2, 0.65)},
		{"nan alpha falls back to default", 1000, 2, nan, SizeForKmers(1000, 2, 0.65)},
		{"negative alpha falls back to default", 1000, 2, -1, SizeForKmers(1000, 2, 0.65)},
		{"alpha above 1 clamps to 1", 1000, 2, 5, 500},
		{"tiny partition floors at 8", 3, 2, 0.65, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := SizeForKmersChecked(tc.nkmers, tc.lambda, tc.alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("SizeForKmersChecked(%d, %g, %g) = %d, want %d",
					tc.nkmers, tc.lambda, tc.alpha, got, tc.want)
			}
			if unchecked := SizeForKmers(tc.nkmers, tc.lambda, tc.alpha); unchecked != tc.want {
				t.Errorf("SizeForKmers disagrees: %d, want %d", unchecked, tc.want)
			}
		})
	}
}

func TestSizeForKmersTooLarge(t *testing.T) {
	// A table beyond MaxSlots must surface the typed error — previously the
	// float→int conversion produced garbage (and could overflow on 32-bit).
	huge := int64(math.MaxInt64)
	_, err := SizeForKmersChecked(huge, 1e30, 0.5)
	if !errors.Is(err, ErrPartitionTooLarge) {
		t.Fatalf("expected ErrPartitionTooLarge, got %v", err)
	}
	// The unchecked variant saturates at the platform cap instead.
	if got := SizeForKmers(huge, 1e30, 0.5); int64(got) != maxPlatformSlots() {
		t.Errorf("SizeForKmers saturated to %d, want %d", got, maxPlatformSlots())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 100); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := New(64, 100); err == nil {
		t.Error("k=64 accepted")
	}
	if _, err := New(27, 0); err == nil {
		t.Error("capacity=0 accepted")
	}
	tab, err := New(27, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Capacity() != 128 {
		t.Errorf("capacity rounded to %d, want 128", tab.Capacity())
	}
	if tab.K() != 27 {
		t.Errorf("K() = %d", tab.K())
	}
	if tab.MemoryBytes() <= 0 || tab.MemoryBytes() != MemoryBytesFor(100) {
		t.Errorf("MemoryBytes() = %d, MemoryBytesFor(100) = %d", tab.MemoryBytes(), MemoryBytesFor(100))
	}
}

func TestContentionReduction(t *testing.T) {
	// With 5 duplicates per distinct kmer, the reduction should be ~80%,
	// the figure the paper reports for real datasets.
	edges, _ := randomEdges(56, 1000, 5000, 27)
	tab, err := New(27, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	red := tab.Metrics().Snapshot().ContentionReduction()
	if red < 0.7 || red > 0.9 {
		t.Errorf("contention reduction = %.2f, want ~0.8", red)
	}
	empty, _ := New(27, 8)
	if empty.Metrics().Snapshot().ContentionReduction() != 0 {
		t.Error("empty table should report 0 reduction")
	}
}

func TestMutexTableMatchesTable(t *testing.T) {
	edges, ref := randomEdges(57, 400, 4000, 27)
	mt, err := NewMutexTable(27, 2048)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += workers {
				if err := mt.InsertEdge(edges[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkAgainstRef(t, mt, ref)
	if mt.LockAcquisitions() < int64(len(edges)) {
		t.Errorf("whole-entry locking took %d locks for %d accesses", mt.LockAcquisitions(), len(edges))
	}
}

func TestMutexTableFull(t *testing.T) {
	mt, err := NewMutexTable(27, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(58))
	var lastErr error
	for i := 0; i < 100 && lastErr == nil; i++ {
		bases := make([]dna.Base, 27)
		for j := range bases {
			bases[j] = dna.Base(rng.Intn(4))
		}
		canon, _ := dna.KmerFromBases(bases, 27).Canonical(27)
		lastErr = mt.InsertEdge(msp.KmerEdge{Canon: canon, Left: msp.NoBase, Right: msp.NoBase})
	}
	if !errors.Is(lastErr, ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", lastErr)
	}
}

func TestStateTransferLocksOncePerKey(t *testing.T) {
	// The defining property: locks (Inserts) == distinct keys regardless of
	// how many duplicate updates happen.
	edges, ref := randomEdges(59, 200, 6000, 27)
	tab, err := New(27, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 8 {
				if err := tab.InsertEdge(edges[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tab.Metrics().Snapshot().Inserts; got != int64(len(ref)) {
		t.Errorf("lock-taking inserts = %d, want exactly %d (one per distinct key)", got, len(ref))
	}
}

func BenchmarkTableInsertEdge(b *testing.B) {
	edges, _ := randomEdges(60, 1<<16, 1<<18, 27)
	tab, err := New(27, 1<<18)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.InsertEdge(edges[i%len(edges)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMutexTableInsertEdge(b *testing.B) {
	edges, _ := randomEdges(61, 1<<16, 1<<18, 27)
	tab, err := NewMutexTable(27, 1<<18)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.InsertEdge(edges[i%len(edges)]); err != nil {
			b.Fatal(err)
		}
	}
}
