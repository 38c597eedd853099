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
	"testing"

	"parahash/internal/graph"
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

// TestGraphCacheEviction drives the completed-graph query cache past its
// LRU bound and checks that evicted graphs transparently reload from their
// published files, with the churn visible in /v1/stats.
func TestGraphCacheEviction(t *testing.T) {
	input := tinyFASTQ(t)
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), GraphCacheSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	var ids []string
	for i := 0; i < 3; i++ {
		rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		waitJobState(t, m, rec.ID, StateDone)
		ids = append(ids, rec.ID)
	}
	s := m.Stats()
	if s.GraphsCached > 2 {
		t.Errorf("GraphsCached = %d, want <= 2", s.GraphsCached)
	}
	if s.GraphEvictions < 1 {
		t.Errorf("GraphEvictions = %d, want >= 1", s.GraphEvictions)
	}

	// The first job's graph was evicted; querying it must reload from the
	// published file without growing the cache past its bound.
	g, err := m.loadGraph(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	kmer := g.Vertices[0].Kmer.String(g.K)
	res, err := m.Query(ids[0], kmer)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present {
		t.Fatalf("vertex %q missing from reloaded graph", kmer)
	}
	s = m.Stats()
	if s.GraphsCached > 2 {
		t.Errorf("after reload GraphsCached = %d, want <= 2", s.GraphsCached)
	}
	if s.GraphEvictions < 2 {
		t.Errorf("after reload GraphEvictions = %d, want >= 2", s.GraphEvictions)
	}

	// The counters are part of the governance surface.
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Stats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.GraphEvictions != s.GraphEvictions || got.GraphsCached != s.GraphsCached {
		t.Fatalf("/v1/stats cache counters = %d/%d, want %d/%d",
			got.GraphsCached, got.GraphEvictions, s.GraphsCached, s.GraphEvictions)
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
