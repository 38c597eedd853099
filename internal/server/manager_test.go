package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parahash"
	"parahash/internal/core"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/hashtable"
	"parahash/internal/manifest"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
)

// testBase is a fast build configuration for server tests.
func testBase() parahash.Config {
	cfg := parahash.DefaultConfig()
	cfg.NumPartitions = 8
	cfg.CPUThreads = 4
	cfg.NumGPUs = 0
	return cfg
}

// tinyFASTQ renders the tiny synthetic dataset as FASTQ bytes.
func tinyFASTQ(t testing.TB) []byte {
	t.Helper()
	d, err := parahash.GenerateDataset(parahash.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := parahash.WriteFASTQ(&buf, d.Reads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleGraphBytes builds the same input fault-free, without a server or a
// checkpoint, and returns the serialised graph — the byte-identity
// reference for every recovery test.
func oracleGraphBytes(t testing.TB, input []byte, cfg parahash.Config) []byte {
	t.Helper()
	reads, err := parahash.ParseReads(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = parahash.CheckpointConfig{}
	res, err := parahash.Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Graph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitJobState polls until the job reaches want (fails on a different
// terminal state or timeout).
func waitJobState(t testing.TB, m *Manager, id string, want State) JobRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rec, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == want {
			return rec
		}
		if rec.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, rec.State, rec.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, rec.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStep2Claims polls a job's checkpoint manifest until n Step 2
// partitions are journalled.
func waitStep2Claims(t testing.TB, m *Manager, id string, n int) {
	t.Helper()
	mpath := filepath.Join(m.checkpointDir(id), "manifest.json")
	deadline := time.Now().Add(time.Minute)
	for {
		if man, err := manifest.Load(mpath); err == nil && len(man.Step2) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never journalled %d step 2 claims", id, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitBuildQueryLifecycle(t *testing.T) {
	input := tinyFASTQ(t)
	root := t.TempDir()
	m, err := Open(Options{Root: root, Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	if !m.Ready() {
		t.Fatal("manager not ready after Open")
	}

	rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJobState(t, m, rec.ID, StateDone)
	if done.Vertices == 0 || done.Edges == 0 {
		t.Fatalf("done job reports empty graph: %+v", done)
	}
	if done.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", done.Attempts)
	}

	// The published graph must match the fault-free oracle byte for byte.
	got, err := os.ReadFile(m.GraphPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	want := oracleGraphBytes(t, input, testBase())
	if !bytes.Equal(got, want) {
		t.Fatalf("server graph differs from oracle: %d vs %d bytes", len(got), len(want))
	}

	// Query a k-mer that is present (take it from the oracle graph) and
	// one that is almost surely absent.
	g, err := parahash.ReadGraph(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	present := g.Vertices[len(g.Vertices)/2].Kmer.String(g.K)
	res, err := m.Query(rec.ID, present)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Present || res.Multiplicity < 1 {
		t.Fatalf("known vertex not found: %+v", res)
	}
	absent := strings.Repeat("AC", g.K)[:g.K]
	if res, err = m.Query(rec.ID, absent); err != nil {
		t.Fatal(err)
	} else if res.Present && res.Multiplicity == 0 {
		t.Fatalf("inconsistent query result: %+v", res)
	}
	if _, err := m.Query(rec.ID, "ACGT"); err == nil {
		t.Error("wrong-length query k-mer accepted")
	}
	if _, err := m.Query(rec.ID, strings.Repeat("N", g.K)); err == nil {
		t.Error("non-ACGT query k-mer accepted")
	}
	if _, err := m.Query("j9999", present); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job query error = %v", err)
	}
}

// TestConcurrentAdmissionSerializes is the multi-job admission acceptance
// test: two jobs whose combined Property-1 weight exceeds the budget must
// serialize — the gate's peak stays under budget, one of them queues — and
// both must still complete byte-identical to a solo run.
func TestConcurrentAdmissionSerializes(t *testing.T) {
	input := tinyFASTQ(t)
	base := testBase()

	// Recompute the per-job admission weight the way Submit does, then set
	// the budget to fit one job but not two.
	reads, err := parahash.ParseReads(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	var totalKmers int64
	for _, r := range reads {
		if n := len(r.Bases) - base.K + 1; n > 0 {
			totalKmers += int64(n)
		}
	}
	slots, err := hashtable.SizeForKmersChecked(totalKmers, base.Lambda, base.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	weight := hashtable.MemoryBytesFor(slots)
	budget := weight + weight/2

	// A job holds its admission from Acquire until it finishes, and its
	// build attempt starts inside it: the admitted job stalls there until the
	// other one has queued at the gate, so a first job that would finish
	// before the second Submit returns cannot pass the test without the
	// gate ever making anyone wait. The hold gives up after a while — the
	// Waits assertion then fails, it never hangs.
	var m *Manager
	hold := func(_ string, ctx context.Context, _ context.CancelCauseFunc) context.Context {
		for deadline := time.Now().Add(10 * time.Second); m.Stats().Gate.Waits < 1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return ctx
	}
	m, err = Open(Options{Root: t.TempDir(), Base: base, MemoryBudgetBytes: budget, Logf: t.Logf, WrapJobCtx: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	a, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if a.WeightBytes != weight || b.WeightBytes != weight {
		t.Fatalf("journalled weights %d/%d, want %d", a.WeightBytes, b.WeightBytes, weight)
	}

	waitJobState(t, m, a.ID, StateDone)
	waitJobState(t, m, b.ID, StateDone)

	// A job is journalled done before its goroutine returns the grant, so
	// wait for the balance rather than sampling it once.
	s := m.Stats()
	for deadline := time.Now().Add(5 * time.Second); s.Gate.BalanceBytes != 0 && time.Now().Before(deadline); s = m.Stats() {
		time.Sleep(time.Millisecond)
	}
	if s.Gate.PeakBytes > budget {
		t.Fatalf("gate peak %d exceeds budget %d — jobs did not serialize", s.Gate.PeakBytes, budget)
	}
	if s.Gate.Waits < 1 {
		t.Errorf("gate waits = %d, want >= 1 (second job should have queued)", s.Gate.Waits)
	}
	if s.Gate.BalanceBytes != 0 {
		t.Errorf("gate balance = %d after both jobs finished, want 0", s.Gate.BalanceBytes)
	}

	want := oracleGraphBytes(t, input, base)
	for _, id := range []string{a.ID, b.ID} {
		got, err := os.ReadFile(m.GraphPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s graph differs from solo oracle", id)
		}
	}
}

// TestOverloadSheds verifies typed load-shedding: with the queue capped
// below demand, excess submissions fail with ErrQueueFull while every
// accepted job still completes.
func TestOverloadSheds(t *testing.T) {
	input := tinyFASTQ(t)
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), MaxQueue: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	var accepted []string
	shed := 0
	for i := 0; i < 5; i++ {
		rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
		switch {
		case err == nil:
			accepted = append(accepted, rec.ID)
		case errors.Is(err, ErrQueueFull):
			shed++
		default:
			t.Fatalf("submit %d: unexpected error %v", i, err)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("every submission was shed")
	}
	if shed == 0 {
		t.Fatal("no submission was shed despite MaxQueue=2")
	}
	if got := m.Stats().Shed; int(got) != shed {
		t.Errorf("Stats().Shed = %d, want %d", got, shed)
	}
	for _, id := range accepted {
		waitJobState(t, m, id, StateDone)
	}
}

// TestKillRecoveryResumesByteIdentical is the in-process crash-recovery
// acceptance test: wedge a job mid-Step-2 with three partitions
// journalled, kill the manager the way a SIGKILL would (no terminal
// journalling), reopen over the same directory, and require the resumed
// job to finish byte-identical to a fault-free run.
func TestKillRecoveryResumesByteIdentical(t *testing.T) {
	input := tinyFASTQ(t)
	base := testBase()
	root := t.TempDir()

	plan := faultinject.Plan{StallPoints: []faultinject.PointFault{{Point: "step2.partition", Hit: 3}}}
	m1, err := Open(Options{
		Root: root, Base: base, Logf: t.Logf,
		WrapJobCtx: func(_ string, ctx context.Context, cancel context.CancelCauseFunc) context.Context {
			return plan.ApplyPoints(ctx, cancel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m1.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	waitStep2Claims(t, m1, rec.ID, 3)
	m1.Kill()

	// The axe fell with the job journalled running: exactly what a real
	// SIGKILL leaves behind.
	j, err := OpenJournal(filepath.Join(root, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := j.Get(rec.ID); r.State != StateRunning {
		t.Fatalf("journal after kill says %s, want running", r.State)
	}

	m2, err := Open(Options{Root: root, Base: base, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	if got := m2.Recovery().Requeued; len(got) != 1 || got[0] != rec.ID {
		t.Fatalf("recovery requeued %v, want [%s]", got, rec.ID)
	}
	done := waitJobState(t, m2, rec.ID, StateDone)
	if !done.Resumed {
		t.Error("recovered job not marked resumed")
	}

	got, err := os.ReadFile(m2.GraphPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleGraphBytes(t, input, base); !bytes.Equal(got, want) {
		t.Fatal("recovered graph differs from fault-free oracle")
	}
}

// TestStartupSweepsOrphanedTmp verifies the satellite requirement that
// server startup sweeps crash litter: stray .tmp files in an unfinished
// job's checkpoint data directory (a crash mid-publish) and next to the
// journal are gone after restart.
func TestStartupSweepsOrphanedTmp(t *testing.T) {
	input := tinyFASTQ(t)
	base := testBase()
	root := t.TempDir()

	plan := faultinject.Plan{StallPoints: []faultinject.PointFault{{Point: "step2.partition", Hit: 2}}}
	m1, err := Open(Options{
		Root: root, Base: base, Logf: t.Logf,
		WrapJobCtx: func(_ string, ctx context.Context, cancel context.CancelCauseFunc) context.Context {
			return plan.ApplyPoints(ctx, cancel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m1.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	waitStep2Claims(t, m1, rec.ID, 2)
	m1.Kill()

	// Model a crash mid-publish: in-flight .tmp litter in the checkpoint
	// data directory and a half-renamed journal.
	dataDir := filepath.Join(root, "jobs", rec.ID, "checkpoint", "data")
	strayCk := filepath.Join(dataDir, "subgraph-999.bin.tmp")
	if err := os.WriteFile(strayCk, []byte("torn write"), 0o666); err != nil {
		t.Fatal(err)
	}
	strayJournal := filepath.Join(root, "jobs.json.tmp")
	if err := os.WriteFile(strayJournal, []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Root: root, Base: base, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	if m2.Recovery().Swept < 2 {
		t.Errorf("recovery swept %d leftover files, want >= 2", m2.Recovery().Swept)
	}
	if _, err := os.Stat(strayCk); !os.IsNotExist(err) {
		t.Errorf("stray file %s survived restart", strayCk)
	}
	// The recovered job is already running and journals its progress
	// through a fresh jobs.json.tmp of its own; only the torn bytes must
	// be gone.
	if b, err := os.ReadFile(strayJournal); err == nil && string(b) == "{torn" {
		t.Errorf("stray file %s survived restart", strayJournal)
	}
	waitJobState(t, m2, rec.ID, StateDone)

	// After the drain there must be no .tmp files anywhere under the data
	// root — the acceptance criterion for clean shutdown state.
	m2.Drain(context.Background())
	assertNoTmpFiles(t, root)
}

// TestDrainCheckpointsRunningJobs verifies graceful shutdown: a running
// job is journalled back to queued with its checkpoint intact, nothing is
// lost, and a new manager resumes it to the oracle graph.
func TestDrainCheckpointsRunningJobs(t *testing.T) {
	input := tinyFASTQ(t)
	base := testBase()
	root := t.TempDir()

	plan := faultinject.Plan{StallPoints: []faultinject.PointFault{{Point: "step2.partition", Hit: 3}}}
	m1, err := Open(Options{
		Root: root, Base: base, Logf: t.Logf,
		WrapJobCtx: func(_ string, ctx context.Context, cancel context.CancelCauseFunc) context.Context {
			return plan.ApplyPoints(ctx, cancel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m1.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	waitStep2Claims(t, m1, rec.ID, 3)

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m1.Ready() {
		t.Error("drained manager still reports ready")
	}
	if _, err := m1.Submit(JobSpec{}, bytes.NewReader(input)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
	r, err := m1.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateQueued || !r.Resumed {
		t.Fatalf("drained job journalled %s (resumed=%v), want queued for resume", r.State, r.Resumed)
	}
	assertNoTmpFiles(t, root)

	m2, err := Open(Options{Root: root, Base: base, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	waitJobState(t, m2, rec.ID, StateDone)
	got, err := os.ReadFile(m2.GraphPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleGraphBytes(t, input, base); !bytes.Equal(got, want) {
		t.Fatal("drain-resumed graph differs from fault-free oracle")
	}
}

func TestCancelJob(t *testing.T) {
	input := tinyFASTQ(t)
	root := t.TempDir()
	plan := faultinject.Plan{StallPoints: []faultinject.PointFault{{Point: "step2.partition", Hit: 1}}}
	m, err := Open(Options{
		Root: root, Base: testBase(), Logf: t.Logf,
		WrapJobCtx: func(_ string, ctx context.Context, cancel context.CancelCauseFunc) context.Context {
			return plan.ApplyPoints(ctx, cancel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	waitStep2Claims(t, m, rec.ID, 1)
	if err := m.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	r, err := m.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateCanceled {
		t.Fatalf("canceled job journalled %s, want canceled", r.State)
	}
	if err := m.Cancel("j9999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown job = %v, want ErrUnknownJob", err)
	}
}

// assertNoTmpFiles fails if any .tmp file survives under root.
func assertNoTmpFiles(t testing.TB, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("orphaned tmp file: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJobBuildStreamsItsInput: a build attempt hands the stored input file to
// the streaming entry point instead of parsing it whole — Step 1 sees chunks
// cut by the stream's size (one, for an input under a chunk long), where the
// in-memory entry point cuts any read set into 4 per processor and at least
// 16 — and the graph is the oracle's.
func TestJobBuildStreamsItsInput(t *testing.T) {
	input := tinyFASTQ(t)
	reads, err := parahash.ParseReads(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	var bases int
	for _, rd := range reads {
		bases += len(rd.Bases)
	}
	wantChunks := (bases + core.DefaultStreamChunkBases - 1) / core.DefaultStreamChunkBases

	trace := parahash.NewTrace()
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf,
		WrapJobConfig: func(_ string, cfg parahash.Config) parahash.Config {
			cfg.Trace = trace
			return cfg
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, m, rec.ID, StateDone)

	chunks := 0
	for _, s := range trace.Spans() {
		if s.Step == "step1" && s.Stage == pipeline.StageRead && s.Clock == obs.ClockWall {
			chunks++
		}
	}
	if chunks != wantChunks {
		t.Fatalf("Step 1 read %d chunks; streaming %d bases takes %d", chunks, bases, wantChunks)
	}
	got, err := os.ReadFile(m.GraphPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracleGraphBytes(t, input, testBase())) {
		t.Fatal("the streamed job's graph differs from the oracle's")
	}
}

// TestJobWithDamagedInputFails damages a job's stored input between submit
// and build: the record that no longer parses fails the job with its typed
// error on the first attempt — the default retry budget must not read past it
// into a truncated graph — and nothing is published.
func TestJobWithDamagedInputFails(t *testing.T) {
	input := tinyFASTQ(t)
	cut := bytes.Index(input[len(input)/2:], []byte("\n@")) + len(input)/2 + 1
	damaged := append(append(append([]byte(nil), input[:cut]...), []byte("@torn\nACGTACGT\nIIIIIIII\n")...), input[cut:]...)

	var m *Manager
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf, RetryBackoff: time.Millisecond,
		WrapJobConfig: func(id string, cfg parahash.Config) parahash.Config {
			if err := os.WriteFile(m.inputPath(id), damaged, 0o666); err != nil {
				t.Error(err)
			}
			return cfg
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	rec, err := m.Submit(JobSpec{}, bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitJobState(t, m, rec.ID, StateFailed)
	if !strings.Contains(failed.Error, fastq.ErrBadRecord.Error()) {
		t.Fatalf("job error %q, want the malformed record's", failed.Error)
	}
	if failed.Attempts != 1 {
		t.Fatalf("the unparseable input was attempted %d times", failed.Attempts)
	}
	if _, err := os.Stat(m.GraphPath(rec.ID)); !os.IsNotExist(err) {
		t.Fatalf("a graph was published for the failed job (stat: %v)", err)
	}
}
