package hashtable_test

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"parahash/internal/dna"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
)

// TestKmerTableConformance runs the contract suite for the Step 2 hash
// table, hashtable.Table, over the state-transfer table: canonical-key
// merging, duplicate idempotence, concurrent linearizability, weighted
// inserts, typed ErrTableFull, Reset reuse, ForEach/Lookup agreement, and
// Grow carrying both entries and metrics. A divergence here would show up as
// partition-dependent graphs, so additions to the table's contract belong in
// this suite first. CI runs this under the race detector; the suite's
// concurrent-insert subtests, plain and weighted, are the linearizability
// check.
func TestKmerTableConformance(t *testing.T) {
	t.Run("statetransfer", func(t *testing.T) {
		runContract(t, func(t *testing.T, k, capacity int) *hashtable.Table {
			tab, err := hashtable.New(k, capacity)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", k, capacity, err)
			}
			return tab
		})
	})
}

// TestMemoryBytesForBackend checks the admission-weight predictor agrees with
// what a freshly built table actually reports, whether the table comes from
// New or from the deprecated name-taking NewBackend — the Step 2 memory gate
// admits partitions by the prediction, so a divergence would let real
// residency exceed the budget.
func TestMemoryBytesForBackend(t *testing.T) {
	const capacity = 1 << 14
	predicted := hashtable.MemoryBytesFor(capacity)
	for _, k := range []int{27, 33} {
		tab, err := hashtable.New(k, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.MemoryBytes(); got != predicted {
			t.Errorf("New k=%d: MemoryBytes() = %d, predictor says %d", k, got, predicted)
		}
		for _, name := range []string{"statetransfer", "lockfree", "sharded"} {
			tab, err := hashtable.NewBackend(name, k, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.MemoryBytes(); got != predicted {
				t.Errorf("NewBackend(%q) k=%d: MemoryBytes() = %d, predictor says %d", name, k, got, predicted)
			}
		}
	}
}

// tableFactory returns a fresh table for one subtest at the requested size.
type tableFactory func(t *testing.T, k, capacity int) *hashtable.Table

// runContract exercises the full table contract against tables produced by
// the factory. It runs the whole suite twice: once at k=27 (the paper's default,
// where keys pack into a single word) and once at k=33 (multi-word keys).
func runContract(t *testing.T, factory tableFactory) {
	for _, k := range []int{27, 33} {
		k := k
		t.Run(kName(k), func(t *testing.T) {
			t.Run("SequentialCorrectness", func(t *testing.T) { testSequential(t, factory, k) })
			t.Run("DuplicateInsertIdempotence", func(t *testing.T) { testDuplicates(t, factory, k) })
			t.Run("CanonicalEquality", func(t *testing.T) { testCanonical(t, factory, k) })
			t.Run("ConcurrentInserts", func(t *testing.T) { testConcurrent(t, factory, k) })
			t.Run("WeightedInsertIsRepeatedInsert", func(t *testing.T) { testWeighted(t, factory, k) })
			t.Run("WeightedInsertWrapsAround", func(t *testing.T) { testWeightedWraparound(t, factory, k) })
			t.Run("ConcurrentWeightedInserts", func(t *testing.T) { testConcurrentWeighted(t, factory, k) })
			t.Run("TableFull", func(t *testing.T) { testTableFull(t, factory, k) })
			t.Run("Reset", func(t *testing.T) { testReset(t, factory, k) })
			t.Run("ForEachVsLookup", func(t *testing.T) { testForEachVsLookup(t, factory, k) })
			t.Run("GrowPreservesEntries", func(t *testing.T) { testGrow(t, factory, k) })
			t.Run("GrowCarriesMetrics", func(t *testing.T) { testGrowMetrics(t, factory, k) })
			t.Run("Sizing", func(t *testing.T) { testSizing(t, factory, k) })
		})
	}
}

func kName(k int) string {
	if k <= 31 {
		return "k27-single-word"
	}
	return "k33-multi-word"
}

// randomEdges builds a workload of canonical k-mer observations with
// duplicates, plus a reference count map mirroring what the table must hold.
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

func checkAgainstRef(t *testing.T, tab *hashtable.Table, ref map[dna.Kmer]*[8]uint32) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d distinct", tab.Len(), len(ref))
	}
	seen := 0
	tab.ForEach(func(e hashtable.Entry) {
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

func testSequential(t *testing.T, factory tableFactory, k int) {
	edges, ref := randomEdges(150, 500, 5000, k)
	tab := factory(t, k, 2048)
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRef(t, tab, ref)
}

func testDuplicates(t *testing.T, factory tableFactory, k int) {
	tab := factory(t, k, 64)
	bases := make([]dna.Base, k)
	for i := range bases {
		bases[i] = dna.Base(i % 4)
	}
	canon, _ := dna.KmerFromBases(bases, k).Canonical(k)
	e := msp.KmerEdge{Canon: canon, Left: 2, Right: 1}
	const n = 25
	for i := 0; i < n; i++ {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after %d duplicate inserts, want 1", tab.Len(), n)
	}
	got, ok := tab.Lookup(canon)
	if !ok {
		t.Fatal("inserted vertex not found")
	}
	if got.Counts[2] != n || got.Counts[4+1] != n {
		t.Fatalf("counts = %v, want %d at [2] and [5]", got.Counts, n)
	}
	m := tab.Metrics().Snapshot()
	if m.Inserts != 1 {
		t.Errorf("Inserts = %d, want exactly 1 (one per distinct key)", m.Inserts)
	}
	if m.Updates != n-1 {
		t.Errorf("Updates = %d, want %d", m.Updates, n-1)
	}
}

func testCanonical(t *testing.T, factory tableFactory, k int) {
	// A k-mer observed forward and as its reverse complement must merge into
	// the same vertex: canonicalization happens before insertion and the
	// table must key on exactly the canonical form.
	tab := factory(t, k, 64)
	bases := make([]dna.Base, k)
	rng := rand.New(rand.NewSource(151))
	for i := range bases {
		bases[i] = dna.Base(rng.Intn(4))
	}
	fwd := dna.KmerFromBases(bases, k)
	rc := fwd.ReverseComplement(k)
	canonF, _ := fwd.Canonical(k)
	canonR, _ := rc.Canonical(k)
	if canonF != canonR {
		t.Fatalf("canonical forms differ: %v vs %v", canonF, canonR)
	}
	for _, canon := range []dna.Kmer{canonF, canonR} {
		if err := tab.InsertEdge(msp.KmerEdge{Canon: canon, Left: 0, Right: msp.NoBase}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (forward and RC must merge)", tab.Len())
	}
	got, ok := tab.Lookup(canonF)
	if !ok {
		t.Fatal("canonical vertex not found")
	}
	if got.Counts[0] != 2 {
		t.Fatalf("merged count = %d, want 2", got.Counts[0])
	}
}

func testConcurrent(t *testing.T, factory tableFactory, k int) {
	// Eight workers hammer the same key set through per-worker Inserters.
	// Under -race this is the linearizability check: every observation must
	// land exactly once regardless of interleaving.
	edges, ref := randomEdges(152, 800, 20000, k)
	tab := factory(t, k, 4096)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := tab.Inserter(w)
			for i := w; i < len(edges); i += workers {
				if err := in.InsertEdge(edges[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkAgainstRef(t, tab, ref)
	m := tab.Metrics().Snapshot()
	if m.Inserts != int64(len(ref)) {
		t.Errorf("Inserts = %d, want %d (one per distinct key)", m.Inserts, len(ref))
	}
	if m.Updates != int64(len(edges)-len(ref)) {
		t.Errorf("Updates = %d, want %d", m.Updates, len(edges)-len(ref))
	}
}

// randomWeights gives each edge a weight in [0, 6], zeros included: a
// weight-0 call must record nothing.
func randomWeights(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]uint32, n)
	for i := range w {
		w[i] = uint32(rng.Intn(7))
	}
	return w
}

// weightedRef is what a table must hold after InsertEdgeN(edges[i],
// weights[i]) for every i, and how many calls record anything.
func weightedRef(edges []msp.KmerEdge, weights []uint32) (map[dna.Kmer]*[8]uint32, int) {
	ref := make(map[dna.Kmer]*[8]uint32)
	calls := 0
	for i, e := range edges {
		if weights[i] == 0 {
			continue
		}
		calls++
		c := ref[e.Canon]
		if c == nil {
			c = &[8]uint32{}
			ref[e.Canon] = c
		}
		if e.Left != msp.NoBase {
			c[e.Left] += weights[i]
		}
		if e.Right != msp.NoBase {
			c[4+e.Right] += weights[i]
		}
	}
	return ref, calls
}

// checkOpsPerCall fails unless every call that recorded something counted
// exactly one insert or update, an insert per distinct key.
func checkOpsPerCall(t *testing.T, tab *hashtable.Table, distinct, calls int) {
	t.Helper()
	m := tab.Metrics().Snapshot()
	if m.Inserts != int64(distinct) || m.Inserts+m.Updates != int64(calls) {
		t.Fatalf("%d inserts + %d updates, want %d + %d (one operation per call)", m.Inserts, m.Updates, distinct, calls-distinct)
	}
}

func testWeighted(t *testing.T, factory tableFactory, k int) {
	// One InsertEdgeN(e, n) leaves the table exactly as n InsertEdge(e)
	// calls do, while counting one operation.
	edges, _ := randomEdges(159, 400, 3000, k)
	weights := randomWeights(160, len(edges))
	weighted, repeated := factory(t, k, 2048), factory(t, k, 2048)
	ins := weighted.Inserter(0)
	for i, e := range edges {
		if _, err := ins.InsertEdgeN(e, weights[i]); err != nil {
			t.Fatal(err)
		}
		for range weights[i] {
			if err := repeated.InsertEdge(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref, calls := weightedRef(edges, weights)
	checkAgainstRef(t, weighted, ref)
	checkAgainstRef(t, repeated, ref)
	checkOpsPerCall(t, weighted, len(ref), calls)

	empty := factory(t, k, 64)
	if probes, err := empty.Inserter(0).InsertEdgeN(edges[0], 0); probes != 0 || err != nil || empty.Len() != 0 {
		t.Fatalf("InsertEdgeN(e, 0) = (%d, %v) and Len %d, want no probe, no entry", probes, err, empty.Len())
	}
	if m := empty.Metrics().Snapshot(); m != (hashtable.Snapshot{}) {
		t.Fatalf("InsertEdgeN(e, 0) counted %+v, want nothing", m)
	}
}

func testWeightedWraparound(t *testing.T, factory tableFactory, k int) {
	// Counters are uint32: a weight wraps them exactly as that many single
	// adds would, and a left and a right counter wrap alike.
	_, ref := randomEdges(161, 1, 1, k)
	var canon dna.Kmer
	for km := range ref {
		canon = km
	}
	e := msp.KmerEdge{Canon: canon, Left: 1, Right: 2}
	tab := factory(t, k, 64)
	ins := tab.Inserter(3)
	for _, n := range []uint32{math.MaxUint32, 2, 1 << 31, 1 << 31} {
		if _, err := ins.InsertEdgeN(e, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.InsertEdge(e); err != nil {
		t.Fatal(err)
	}
	// 2^32-1 + 2 + 2^31 + 2^31 + 1 = 2 mod 2^32.
	got, ok := tab.Lookup(canon)
	if want := [8]uint32{1: 2, 6: 2}; !ok || got.Counts != want {
		t.Fatalf("counts %v (found %v), want %v", got.Counts, ok, want)
	}
	checkOpsPerCall(t, tab, 1, 5)
}

func testConcurrentWeighted(t *testing.T, factory tableFactory, k int) {
	// Eight workers insert weighted observations of one key set through
	// per-worker Inserters; under -race this is the linearizability check
	// for the weighted adds.
	edges, _ := randomEdges(162, 800, 20000, k)
	weights := randomWeights(163, len(edges))
	tab := factory(t, k, 4096)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := tab.Inserter(w)
			for i := w; i < len(edges); i += workers {
				if _, err := in.InsertEdgeN(edges[i], weights[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ref, calls := weightedRef(edges, weights)
	checkAgainstRef(t, tab, ref)
	checkOpsPerCall(t, tab, len(ref), calls)
}

func testTableFull(t *testing.T, factory tableFactory, k int) {
	tab := factory(t, k, 8)
	rng := rand.New(rand.NewSource(153))
	var lastErr error
	for i := 0; i < 20000 && lastErr == nil; i++ {
		bases := make([]dna.Base, k)
		for j := range bases {
			bases[j] = dna.Base(rng.Intn(4))
		}
		canon, _ := dna.KmerFromBases(bases, k).Canonical(k)
		lastErr = tab.InsertEdge(msp.KmerEdge{Canon: canon, Left: msp.NoBase, Right: msp.NoBase})
	}
	if !errors.Is(lastErr, hashtable.ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", lastErr)
	}
}

func testReset(t *testing.T, factory tableFactory, k int) {
	edges, _ := randomEdges(154, 100, 500, k)
	tab := factory(t, k, 1024)
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
	tab.ForEach(func(hashtable.Entry) { count++ })
	if count != 0 {
		t.Fatalf("entries after Reset = %d", count)
	}
	if m := tab.Metrics().Snapshot(); m != (hashtable.Snapshot{}) {
		t.Fatalf("metrics after Reset = %+v, want zero", m)
	}
	// The table must be reusable for a fresh partition.
	edges2, ref2 := randomEdges(155, 100, 500, k)
	for _, e := range edges2 {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRef(t, tab, ref2)
}

func testForEachVsLookup(t *testing.T, factory tableFactory, k int) {
	edges, _ := randomEdges(156, 300, 3000, k)
	tab := factory(t, k, 1024)
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	// Every entry ForEach yields must be reachable through Lookup with
	// identical counts — iteration and point reads see the same state.
	visited := 0
	tab.ForEach(func(e hashtable.Entry) {
		visited++
		got, ok := tab.Lookup(e.Kmer)
		if !ok {
			t.Fatalf("ForEach entry %v not found by Lookup", e.Kmer)
		}
		if got.Counts != e.Counts {
			t.Fatalf("Lookup(%v) counts %v, ForEach saw %v", e.Kmer, got.Counts, e.Counts)
		}
	})
	if visited != tab.Len() {
		t.Fatalf("ForEach visited %d, Len = %d", visited, tab.Len())
	}
}

func testGrow(t *testing.T, factory tableFactory, k int) {
	edges, ref := randomEdges(157, 300, 2000, k)
	tab := factory(t, k, 16)
	for _, e := range edges {
		err := tab.InsertEdge(e)
		if errors.Is(err, hashtable.ErrTableFull) {
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

func testGrowMetrics(t *testing.T, factory tableFactory, k int) {
	// Grow rebuilds the table; the work counters must survive the rebuild —
	// a resize that silently zeroed them would deflate the run's reported
	// hash work (the Step 2 resize-loop bug this suite pins down).
	edges, _ := randomEdges(158, 200, 1000, k)
	tab := factory(t, k, 2048)
	for _, e := range edges {
		if err := tab.InsertEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	before := tab.Metrics().Snapshot()
	if before.Inserts == 0 || before.Probes == 0 {
		t.Fatalf("expected non-zero metrics before Grow, got %+v", before)
	}
	grown, err := tab.Grow()
	if err != nil {
		t.Fatal(err)
	}
	after := grown.Metrics().Snapshot()
	if after.Inserts < before.Inserts || after.Updates < before.Updates ||
		after.Probes < before.Probes || after.LockWaits < before.LockWaits ||
		after.CASFailures < before.CASFailures {
		t.Fatalf("counters regressed across Grow: before %+v, after %+v", before, after)
	}
	if grown.Capacity() <= tab.Capacity() {
		t.Fatalf("Grow capacity %d not larger than %d", grown.Capacity(), tab.Capacity())
	}
	if grown.Len() != tab.Len() {
		t.Fatalf("Grow lost entries: %d, want %d", grown.Len(), tab.Len())
	}
}

func testSizing(t *testing.T, factory tableFactory, k int) {
	tab := factory(t, k, 1000)
	if tab.K() != k {
		t.Errorf("K() = %d, want %d", tab.K(), k)
	}
	if tab.Capacity() < 1000 {
		t.Errorf("Capacity() = %d, want >= requested 1000", tab.Capacity())
	}
	if tab.MemoryBytes() <= 0 {
		t.Error("MemoryBytes() not positive")
	}
	if tab.Len() != 0 {
		t.Errorf("fresh table Len = %d", tab.Len())
	}
}
