package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"parahash"
	"parahash/internal/graph"
	"parahash/internal/graph/graphtest"
)

// TestJournalCompact exercises the compaction contract at the journal
// level: only the oldest terminal records are dropped, order is preserved,
// and the id high-water mark survives even when the highest id itself is
// compacted away.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	states := []State{StateDone, StateFailed, StateDone, StateCanceled, StateDone,
		StateRunning, StateQueued, StateDone}
	for i, s := range states {
		if err := j.Put(JobRecord{ID: fmt.Sprintf("j%04d", i+1), State: s}); err != nil {
			t.Fatal(err)
		}
	}

	dropped, err := j.Compact(2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 4 {
		t.Fatalf("Compact(2) dropped %d, want 4", dropped)
	}
	var ids []string
	for _, r := range j.List() {
		ids = append(ids, r.ID)
	}
	want := []string{"j0005", "j0006", "j0007", "j0008"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("kept %v, want %v", ids, want)
	}

	// Dropping every terminal record must not lower the id high-water:
	// j0008 vanishes from the file, but its id stays retired.
	if dropped, err = j.Compact(0); err != nil || dropped != 2 {
		t.Fatalf("Compact(0) = %d, %v; want 2, nil", dropped, err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.MaxSeq(); got != 8 {
		t.Fatalf("reloaded MaxSeq = %d, want 8", got)
	}
	for _, r := range j2.List() {
		if r.State.Terminal() {
			t.Fatalf("terminal record %s survived Compact(0)", r.ID)
		}
	}
	if dropped, err = j2.Compact(0); err != nil || dropped != 0 {
		t.Fatalf("idempotent Compact = %d, %v; want 0, nil", dropped, err)
	}
}

// TestStartupCompactionPreservesRecovery is the satellite's
// recovery-identity check: a journal padded with old terminal records is
// compacted on startup, yet recovery requeues exactly the same jobs it
// would have without compaction, and new ids continue past the compacted
// high-water instead of reusing it.
func TestStartupCompactionPreservesRecovery(t *testing.T) {
	input := tinyFASTQ(t)
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "jobs", "j0007"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "jobs", "j0007", "input.fastq"), input, 0o666); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(filepath.Join(root, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := j.Put(JobRecord{ID: fmt.Sprintf("j%04d", i), State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Put(JobRecord{ID: "j0007", State: StateQueued, TotalKmers: 1, WeightBytes: 1}); err != nil {
		t.Fatal(err)
	}

	m, err := Open(Options{Root: root, Base: testBase(), JournalRetain: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	rep := m.Recovery()
	if rep.CompactedJobs != 3 {
		t.Errorf("CompactedJobs = %d, want 3", rep.CompactedJobs)
	}
	if len(rep.Requeued) != 1 || rep.Requeued[0] != "j0007" {
		t.Fatalf("Requeued = %v, want [j0007]", rep.Requeued)
	}
	waitJobState(t, m, "j0007", StateDone)

	// The compacted ids stay retired: the next submission continues the
	// sequence past j0007, it does not resurrect j0001.
	rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "j0008" {
		t.Fatalf("post-compaction id = %s, want j0008", rec.ID)
	}
	waitJobState(t, m, rec.ID, StateDone)
}

// TestRecoveryIgnoresRetiredBackendSpec recovers a journal written when a
// job spec could still name a Step 2 table backend: the queued job's
// "table_backend" is ignored, and the job finishes byte-identical to a fresh
// submission of the same input and spec.
func TestRecoveryIgnoresRetiredBackendSpec(t *testing.T) {
	input := tinyFASTQ(t)
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "jobs", "j0001"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "jobs", "j0001", "input.fastq"), input, 0o666); err != nil {
		t.Fatal(err)
	}
	// Written by the journal of a server that still had the spec field.
	journal := `{
  "schema": "parahash.jobs/v1",
  "max_seq": 1,
  "jobs": [
    {
      "id": "j0001",
      "state": "queued",
      "spec": {
        "k": 27,
        "p": 19,
        "table_backend": "sharded"
      },
      "total_kmers": 1,
      "weight_bytes": 1,
      "submitted_unix": 1700000000
    }
  ]
}`
	if err := os.WriteFile(filepath.Join(root, "jobs.json"), []byte(journal), 0o666); err != nil {
		t.Fatal(err)
	}

	m, err := Open(Options{Root: root, Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	if rep := m.Recovery(); len(rep.Requeued) != 1 || rep.Requeued[0] != "j0001" {
		t.Fatalf("Requeued = %v, want [j0001]", rep.Requeued)
	}
	waitJobState(t, m, "j0001", StateDone)
	fresh, err := m.Submit(JobSpec{K: 27, P: 19}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, fresh.ID, StateDone)

	recovered, err := os.ReadFile(m.GraphPath("j0001"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(m.GraphPath(fresh.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered, want) {
		t.Fatalf("recovered job's graph (%d bytes) differs from a fresh job's (%d bytes)", len(recovered), len(want))
	}
}

// buildJobs submits n copies of input and waits for each to finish.
func buildJobs(t *testing.T, m *Manager, input []byte, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		waitJobState(t, m, rec.ID, StateDone)
		ids = append(ids, rec.ID)
	}
	return ids
}

// middleVertex decodes a job's published graph — the oracle the in-place
// reader is held to — and returns one of its k-mers with its vertex.
func middleVertex(t *testing.T, m *Manager, id string) (string, graph.Vertex) {
	t.Helper()
	f, err := os.Open(m.GraphPath(id))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadSubgraph(f)
	if err != nil {
		t.Fatal(err)
	}
	v := g.Vertices[len(g.Vertices)/2]
	return v.Kmer.String(g.K), v
}

// openFilesUnder counts this process's descriptors that point below root.
func openFilesUnder(t *testing.T, root string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	if root, err = filepath.EvalSymlinks(root); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(target, root) {
			n++
		}
	}
	return n
}

// TestGraphCacheEviction drives the completed-graph query cache past its
// LRU bound and checks that evicted graph files transparently reopen, with
// the churn visible in /v1/stats and every handle closed by Drain.
func TestGraphCacheEviction(t *testing.T) {
	root := t.TempDir()
	m, err := Open(Options{Root: root, Base: testBase(), GraphCacheSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	ids := buildJobs(t, m, tinyFASTQ(t), 3)
	if s := m.Stats(); s.GraphsCached != 0 {
		t.Errorf("GraphsCached = %d before any query, want 0: a finished build's graph is not retained", s.GraphsCached)
	}
	kmer, _ := middleVertex(t, m, ids[0])
	query := func(id string) {
		t.Helper()
		if res, err := m.Query(id, kmer); err != nil || !res.Present {
			t.Fatalf("job %s: vertex %q: %+v, %v", id, kmer, res, err)
		}
	}
	for _, id := range ids {
		query(id)
	}
	s := m.Stats()
	if s.GraphsCached != 2 {
		t.Errorf("GraphsCached = %d, want 2", s.GraphsCached)
	}
	if s.GraphEvictions != 1 {
		t.Errorf("GraphEvictions = %d, want 1", s.GraphEvictions)
	}
	if n := openFilesUnder(t, root); n != 2 {
		t.Errorf("%d files open under the data root with 2 graphs cached", n)
	}

	// The first job's file was closed; querying it reopens it without
	// growing the cache past its bound.
	query(ids[0])
	s = m.Stats()
	if s.GraphsCached != 2 {
		t.Errorf("after reopen GraphsCached = %d, want 2", s.GraphsCached)
	}
	if s.GraphEvictions != 2 {
		t.Errorf("after reopen GraphEvictions = %d, want 2", s.GraphEvictions)
	}

	// The counters are part of the governance surface.
	ts := httptest.NewServer(Handler(m))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	ts.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.GraphEvictions != s.GraphEvictions || got.GraphsCached != s.GraphsCached {
		t.Fatalf("/v1/stats cache counters = %d/%d, want %d/%d",
			got.GraphsCached, got.GraphEvictions, s.GraphsCached, s.GraphEvictions)
	}

	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := openFilesUnder(t, root); n != 0 {
		t.Errorf("%d files still open under the data root after Drain", n)
	}
	// A drained manager still answers, from a handle it does not keep.
	query(ids[1])
	if s, n := m.Stats(), openFilesUnder(t, root); s.GraphsCached != 0 || n != 0 {
		t.Errorf("after a post-Drain query: GraphsCached = %d, %d files open; want 0, 0", s.GraphsCached, n)
	}
}

// TestGraphHandlesUnderConcurrentEviction thrashes the cache: eight
// clients over four jobs at a bound of two, so handles are evicted while
// other lookups are reading through them. No query may ever see a closed
// file, every answer is the oracle's, and nothing stays open after Drain.
func TestGraphHandlesUnderConcurrentEviction(t *testing.T) {
	root := t.TempDir()
	m, err := Open(Options{Root: root, Base: testBase(), GraphCacheSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	ids := buildJobs(t, m, tinyFASTQ(t), 4)
	kmer, want := middleVertex(t, m, ids[0])

	const clients, queries = 8, 2000
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < queries; i += clients {
				res, err := m.Query(ids[i%len(ids)], kmer)
				if err != nil || !res.Present || res.Multiplicity != want.Multiplicity() || res.Degree != want.Degree() {
					t.Errorf("query %d: %+v, %v", i, res, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s := m.Stats()
	if s.GraphsCached > 2 || s.GraphEvictions < 2 {
		t.Errorf("GraphsCached = %d, GraphEvictions = %d; want at most 2 cached and the cache thrashed", s.GraphsCached, s.GraphEvictions)
	}
	if n := openFilesUnder(t, root); n > 2 {
		t.Errorf("%d files open under the data root at a cache bound of 2 with no query in flight", n)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := openFilesUnder(t, root); n != 0 {
		t.Errorf("%d files still open under the data root after Drain", n)
	}
}

// TestQueryReadsVersion1Graph: a job whose graph an older binary wrote — a
// version-1 file, three times the size — answers a restarted manager's
// queries as the version-2 file did.
func TestQueryReadsVersion1Graph(t *testing.T) {
	input := tinyFASTQ(t)
	opts := Options{Root: t.TempDir(), Base: testBase()}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id := buildJobs(t, m, input, 1)[0]
	kmer, want := middleVertex(t, m, id)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(m.GraphPath(id))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadSubgraph(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.GraphPath(id), graphtest.Version1(g), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	res, err := m.Query(id, kmer)
	if err != nil || !res.Present || res.Multiplicity != want.Multiplicity() || res.Degree != want.Degree() {
		t.Fatalf("query of a version-1 graph: %+v, %v; want the vertex %+v", res, err, want)
	}
}

// TestColdQueryAfterRestart: a restarted manager answers its first query
// for a job it never built from the published file in place — one cached
// handle, and no graph-sized allocation left behind.
func TestColdQueryAfterRestart(t *testing.T) {
	d, err := parahash.GenerateDataset(parahash.TinyProfile().Scale(12))
	if err != nil {
		t.Fatal(err)
	}
	var input bytes.Buffer
	if err := parahash.WriteFASTQ(&input, d.Reads); err != nil {
		t.Fatal(err)
	}
	opts := Options{Root: t.TempDir(), Base: testBase()}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id := buildJobs(t, m, input.Bytes(), 1)[0]
	kmer, want := middleVertex(t, m, id)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(m.GraphPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 1<<20 {
		t.Fatalf("graph file is %d bytes; the test needs one over 1 MiB", st.Size())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	res, err := m.Query(id, kmer)
	if err != nil || !res.Present || res.Multiplicity != want.Multiplicity() || res.Degree != want.Degree() {
		t.Fatalf("cold query: %+v, %v; want the vertex %+v", res, err, want)
	}
	if s := m.Stats(); s.GraphsCached != 1 {
		t.Errorf("GraphsCached = %d, want 1", s.GraphsCached)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("live heap grew %d bytes across a cold query of a %d-byte graph: a decoded copy is retained", grew, st.Size())
	}
}

// TestColdLoadRejectsMisorderedGraph: a cold load trusts the published
// file's order after one read-only check; a file whose vertices are out of
// order is refused with a typed error, never re-sorted into a graph no
// build produced.
func TestColdLoadRejectsMisorderedGraph(t *testing.T) {
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), GraphCacheSize: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	var ids []string
	for i := 0; i < 2; i++ { // the second job evicts the first from the cache
		rec, err := m.Submit(JobSpec{}, bytes.NewReader(tinyFASTQ(t)))
		if err != nil {
			t.Fatal(err)
		}
		waitJobState(t, m, rec.ID, StateDone)
		ids = append(ids, rec.ID)
	}
	data, err := os.ReadFile(m.GraphPath(ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadSubgraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	kmer := g.Vertices[0].Kmer.String(g.K)
	g.Vertices[0], g.Vertices[1] = g.Vertices[1], g.Vertices[0]
	var damaged bytes.Buffer
	if err := g.Write(&damaged); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.GraphPath(ids[0]), damaged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(ids[0], kmer); !errors.Is(err, graph.ErrUnsorted) {
		t.Fatalf("query over a mis-ordered graph file: err = %v, want graph.ErrUnsorted", err)
	}
}

// TestRetryAfterDerivation pins the 429 Retry-After hint to the gate's
// wait EWMA: the floor when admissions are immediate (or there is no
// gate), the rounded-up estimate under pressure, capped so a pathological
// backlog never tells clients to go away for minutes.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		ewma float64
		want int
	}{
		{0, 1}, {0.2, 1}, {1.0, 1}, {1.01, 2}, {2.3, 3}, {59.5, 60}, {1e6, 60}, {-3, 1},
	}
	for _, c := range cases {
		if got := retryAfterFromEWMA(c.ewma); got != c.want {
			t.Errorf("retryAfterFromEWMA(%v) = %d, want %d", c.ewma, got, c.want)
		}
	}
	// Without a memory budget there is no gate and no wait signal; the
	// hint is the floor rather than a crash or a zero.
	m := &Manager{}
	if got := m.RetryAfterSeconds(); got != 1 {
		t.Errorf("gateless RetryAfterSeconds = %d, want 1", got)
	}
}
