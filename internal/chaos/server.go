package chaos

// Server-mode chaos: the same seeded differential methodology as the
// build-mode engine, aimed one layer up at the parahashd job lifecycle
// (internal/server.Manager). A scenario submits jobs to an in-process
// manager under per-job store faults and a cross-job memory budget, then
// disrupts it mid-build — Kill (the SIGKILL model: canceled workers, no
// terminal journal writes) or a graceful Drain — and restarts a fresh
// fault-free manager over the same data directory.
//
// The server invariant contract, asserted on every run:
//
//   - every submitted job eventually reaches done, and its published graph
//     is byte-identical to the fault-free oracle — across kill, drain and
//     per-job store faults ("job-outcome" / "byte-identical");
//   - a killed manager leaves the victim journalled running, and restart
//     recovery re-queues it with its resume flag; a drained manager
//     journals it back to queued+resumed ("journal-consistent",
//     "server-recovery");
//   - recovery's checkpoint scrub finds no damaged manifest claims
//     ("consistent-checkpoint");
//   - the restarted manager answers k-mer queries for graphs it never
//     built in-process ("query-serving");
//   - the cross-job admission gate's accounting drains to zero
//     ("gate-balance") and no goroutines leak ("goroutine-leak").

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"parahash/internal/core"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/server"
	"parahash/internal/store"
)

// serverVictim is the id the manager assigns the first submitted job — the
// disruption target. First-submitted means first at the admission gate, so
// under a serializing memory budget the victim is always the job actually
// building when the disruption lands.
const serverVictim = "j0001"

// ServerScenario is one server-mode run's materialised schedule, a
// deterministic function of its seed.
type ServerScenario struct {
	// Seed derives every random choice below.
	Seed int64
	// Jobs is how many identical build jobs the run submits.
	Jobs int
	// MemoryBudgetBytes, when positive, runs the manager under a cross-job
	// admission budget (tight enough that concurrent jobs serialize).
	MemoryBudgetBytes int64
	// Disrupt is the mid-build disruption: "kill" (SIGKILL model),
	// "drain" (graceful SIGTERM model) or "none".
	Disrupt string
	// StallHit arms a plan-scoped stall at step2.partition on the victim
	// job: the disruption fires once the victim has journalled this many
	// Step 2 claims, so it always lands mid-build at a known depth.
	StallHit int
	// Plans carries per-job store-fault plans, keyed by job id.
	Plans map[string]faultinject.Plan
	// Faults describes the schedule for the report.
	Faults []string
}

// GenerateServerScenario derives the seed's server scenario for a profile.
func GenerateServerScenario(seed int64, prof Profile) ServerScenario {
	rng := rand.New(rand.NewSource(seed))
	s := ServerScenario{Seed: seed, Plans: map[string]faultinject.Plan{}}
	pick := func(p float64) bool { return rng.Float64() < p }
	note := func(format string, args ...any) {
		s.Faults = append(s.Faults, fmt.Sprintf(format, args...))
	}

	s.Jobs = 1 + rng.Intn(2)
	note("%d jobs", s.Jobs)

	// Per-job transient store faults: the job lifecycle's in-build
	// resilience and checkpointed job-level retries must absorb all of
	// them, so every job is still required to finish done and
	// byte-identical. Persistent faults stay in build mode, where the
	// typed-failure classification can be asserted on the live error.
	for i := 1; i <= s.Jobs; i++ {
		id := fmt.Sprintf("j%04d", i)
		var plan faultinject.Plan
		if pick(0.4) {
			f := faultinject.StoreFault{File: core.SuperkmerFile(rng.Intn(prof.Partitions)), Times: 1 + rng.Intn(2)}
			plan.ReadFaults = append(plan.ReadFaults, f)
			note("job %s read-fault %s x%d", id, f.File, f.Times)
		}
		if pick(0.3) {
			f := faultinject.StoreFault{File: core.SuperkmerFile(rng.Intn(prof.Partitions)), Times: 1, Corrupt: true}
			plan.ReadFaults = append(plan.ReadFaults, f)
			note("job %s corrupt-read %s x1", id, f.File)
		}
		if pick(0.3) {
			f := faultinject.StoreFault{File: core.SubgraphFile(rng.Intn(prof.Partitions)), Times: 1 + rng.Intn(2)}
			plan.WriteFaults = append(plan.WriteFaults, f)
			note("job %s write-fault %s x%d", id, f.File, f.Times)
		}
		if pick(0.25) {
			f := faultinject.SlowFault{
				File:  core.SuperkmerFile(rng.Intn(prof.Partitions)),
				Times: 1 + rng.Intn(3),
				Delay: time.Duration(1+rng.Intn(3)) * time.Millisecond,
			}
			plan.SlowReads = append(plan.SlowReads, f)
			note("job %s slow-read %s x%d %v", id, f.File, f.Times, f.Delay)
		}
		if len(plan.ReadFaults)+len(plan.WriteFaults)+len(plan.SlowReads) > 0 {
			s.Plans[id] = plan
		}
	}

	// Tight cross-job budget: jobs queue at the gate instead of running
	// wide; disruption then also lands on gate-waiting jobs.
	if pick(0.35) {
		s.MemoryBudgetBytes = 64<<10 + rng.Int63n(1<<20)
		note("memory budget %d bytes", s.MemoryBudgetBytes)
	}

	switch d := rng.Float64(); {
	case d < 0.5:
		s.Disrupt = "kill"
	case d < 0.8:
		s.Disrupt = "drain"
	default:
		s.Disrupt = "none"
	}
	if s.Disrupt != "none" {
		s.StallHit = 1 + rng.Intn(prof.Partitions)
		note("%s once %s journals %d step 2 claims", s.Disrupt, serverVictim, s.StallHit)
	} else {
		note("no disruption")
	}
	return s
}

// RunServerOne derives the seed's server scenario and executes it in dir.
func (e *Engine) RunServerOne(ctx context.Context, run int, seed int64, dir string) RunReport {
	rep := e.RunServerScenario(ctx, GenerateServerScenario(seed, e.prof), dir)
	rep.Run = run
	return rep
}

// serverInput serialises the engine's dataset as the FASTQ stream jobs are
// submitted with.
func (e *Engine) serverInput() ([]byte, error) {
	var buf bytes.Buffer
	if err := fastq.WriteFASTQ(&buf, e.reads); err != nil {
		return nil, fmt.Errorf("chaos: serialising server input: %w", err)
	}
	return buf.Bytes(), nil
}

// serverOptions assembles one phase's manager options. Fault wrappers are
// installed by the caller (phase 1 only); phase 2 is always fault-free,
// mirroring build mode's fault-free resume.
func (e *Engine) serverOptions(s ServerScenario, dir string) server.Options {
	return server.Options{
		Root:              dir,
		Base:              e.baseCfg,
		MemoryBudgetBytes: s.MemoryBudgetBytes,
		RetryMax:          2,
		RetryBackoff:      2 * time.Millisecond,
		RetryJitter:       0.5,
		RetrySeed:         s.Seed,
	}
}

// RunServerScenario executes one materialised server scenario in dir and
// checks every server invariant. It always returns a report; violations
// are carried inside it.
func (e *Engine) RunServerScenario(ctx context.Context, s ServerScenario, dir string) (rep RunReport) {
	rep = RunReport{Seed: s.Seed, Faults: s.Faults, Outcome: "completed"}
	start := time.Now()
	defer func() { rep.Seconds = time.Since(start).Seconds() }()
	violate := func(invariant, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	before := runtime.NumGoroutine()

	input, err := e.serverInput()
	if err != nil {
		violate("server-lifecycle", "%v", err)
		return rep
	}

	// Phase 1: the faulted manager. Store faults are re-armed per build
	// attempt through WrapJobConfig; the victim's stall point is armed
	// through WrapJobCtx and released by the disruption's cancellation.
	opts := e.serverOptions(s, dir)
	opts.WrapJobConfig = func(id string, cfg core.Config) core.Config {
		plan, ok := s.Plans[id]
		if !ok {
			return cfg
		}
		cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
			fs := faultinject.WrapStore(st)
			plan.ApplyStore(fs)
			return fs
		}
		return cfg
	}
	if s.Disrupt != "none" {
		stall := faultinject.Plan{StallPoints: []faultinject.PointFault{
			{Point: "step2.partition", Hit: s.StallHit},
		}}
		opts.WrapJobCtx = func(id string, ctx context.Context, cancel context.CancelCauseFunc) context.Context {
			if id != serverVictim {
				return ctx
			}
			return stall.ApplyPoints(ctx, cancel)
		}
	}

	m, err := server.Open(opts)
	if err != nil {
		violate("server-lifecycle", "phase-1 open: %v", err)
		return rep
	}
	ids := make([]string, 0, s.Jobs)
	for i := 0; i < s.Jobs; i++ {
		rec, err := m.Submit(server.JobSpec{}, bytes.NewReader(input))
		if err != nil {
			violate("server-lifecycle", "submit %d: %v", i+1, err)
			m.Kill()
			return rep
		}
		ids = append(ids, rec.ID)
	}
	if ids[0] != serverVictim {
		violate("server-lifecycle", "first job id %s, want %s", ids[0], serverVictim)
		m.Kill()
		return rep
	}

	victimManifest := filepath.Join(dir, "jobs", serverVictim, "checkpoint", "manifest.json")
	journalPath := filepath.Join(dir, "jobs.json")
	switch s.Disrupt {
	case "kill":
		if !waitManifestStep2Claims(victimManifest, s.StallHit, 30*time.Second) {
			violate("server-lifecycle", "victim never journalled %d step 2 claims", s.StallHit)
		}
		m.Kill()
		// SIGKILL model: the journal must still say what it said when the
		// axe fell — the victim running, for restart recovery to resume.
		if j, jerr := server.OpenJournal(journalPath); jerr != nil {
			violate("journal-consistent", "reading journal post-kill: %v", jerr)
		} else if r, ok := j.Get(serverVictim); !ok || r.State != server.StateRunning {
			violate("journal-consistent", "victim journalled %q after kill, want running", r.State)
		}
	case "drain":
		if !waitManifestStep2Claims(victimManifest, s.StallHit, 30*time.Second) {
			violate("server-lifecycle", "victim never journalled %d step 2 claims", s.StallHit)
		}
		dctx, cancel := context.WithTimeout(ctx, time.Minute)
		derr := m.Drain(dctx)
		cancel()
		if derr != nil {
			violate("server-lifecycle", "drain: %v", derr)
		}
		if j, jerr := server.OpenJournal(journalPath); jerr != nil {
			violate("journal-consistent", "reading journal post-drain: %v", jerr)
		} else if r, ok := j.Get(serverVictim); !ok || r.State != server.StateQueued || !r.Resumed {
			violate("journal-consistent", "victim journalled %q resumed=%v after drain, want queued+resumed", r.State, r.Resumed)
		}
	default: // no disruption: every job must finish in phase 1
		for _, id := range ids {
			r, ok := waitJobTerminal(m, id, 2*time.Minute)
			if !ok {
				violate("server-lifecycle", "job %s never reached a terminal state", id)
			} else if r.State != server.StateDone {
				rep.Outcome = "failed"
				rep.Error = r.Error
				violate("job-outcome", "job %s ended %s (%s), want done", id, r.State, r.Error)
			}
		}
		dctx, cancel := context.WithTimeout(ctx, time.Minute)
		if derr := m.Drain(dctx); derr != nil {
			violate("server-lifecycle", "phase-1 drain: %v", derr)
		}
		cancel()
		// Balance is only checkable after Drain: job goroutines release
		// their admission in a defer that runs after the terminal journal
		// write, and Drain is what waits those goroutines out.
		if s.MemoryBudgetBytes > 0 {
			if b := m.Stats().Gate.BalanceBytes; b != 0 {
				violate("gate-balance", "phase-1 admission balance %d bytes after drain", b)
			}
		}
	}

	// Phase 2: a fresh fault-free manager over the same data directory.
	// Recovery must scrub cleanly, re-queue exactly the unfinished work,
	// and converge every job to the oracle.
	m2, err := server.Open(e.serverOptions(s, dir))
	if err != nil {
		violate("server-recovery", "phase-2 open: %v", err)
		return rep
	}
	rec2 := m2.Recovery()
	for id, sr := range rec2.Scrubbed {
		if sr.Step1Damaged != 0 || sr.Step2Damaged != 0 || sr.SpillDamaged != 0 {
			violate("consistent-checkpoint", "job %s scrub found damaged claims: %+v", id, sr)
		}
	}
	switch {
	case s.Disrupt == "none" && len(rec2.Requeued) != 0:
		violate("server-recovery", "restart requeued %v after a completed phase 1", rec2.Requeued)
	case s.Disrupt != "none" && !slices.Contains(rec2.Requeued, serverVictim):
		violate("server-recovery", "victim not requeued at restart (requeued: %v)", rec2.Requeued)
	}

	doneID := ""
	for _, id := range ids {
		r, ok := waitJobTerminal(m2, id, 2*time.Minute)
		if !ok {
			violate("server-recovery", "job %s never reached a terminal state after restart", id)
			continue
		}
		if r.State != server.StateDone {
			rep.Outcome = "failed"
			if rep.Error == "" {
				rep.Error = r.Error
			}
			violate("job-outcome", "job %s ended %s (%s) after restart, want done", id, r.State, r.Error)
			continue
		}
		if id == serverVictim && s.Disrupt != "none" {
			rep.Resumed = true
			if !r.Resumed {
				violate("server-recovery", "victim completed without its resume flag after %s", s.Disrupt)
			}
		}
		doneID = id
		got, rerr := os.ReadFile(m2.GraphPath(id))
		if rerr != nil {
			violate("byte-identical", "job %s graph: %v", id, rerr)
		} else if !bytes.Equal(got, e.oracleBytes) {
			violate("byte-identical", "job %s graph differs from the oracle (%d vs %d bytes)", id, len(got), len(e.oracleBytes))
		}
	}

	// The restarted manager serves queries from the published graph file —
	// including for jobs it never built in this process.
	if doneID != "" {
		g, gerr := graph.ReadSubgraph(bytes.NewReader(e.oracleBytes))
		if gerr != nil || g.NumVertices() == 0 {
			violate("query-serving", "oracle graph unreadable: %v", gerr)
		} else {
			kmer := g.Vertices[0].Kmer.String(g.K)
			if q, qerr := m2.Query(doneID, kmer); qerr != nil || !q.Present {
				violate("query-serving", "query %q on job %s: present=%v err=%v", kmer, doneID, q.Present, qerr)
			}
		}
	}
	dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if derr := m2.Drain(dctx); derr != nil {
		violate("server-lifecycle", "phase-2 drain: %v", derr)
	}
	cancel()
	// After Drain for the same reason as phase 1: the deferred admission
	// release runs after the terminal journal write.
	if s.MemoryBudgetBytes > 0 {
		if b := m2.Stats().Gate.BalanceBytes; b != 0 {
			violate("gate-balance", "phase-2 admission balance %d bytes after drain", b)
		}
	}

	checkGoroutines(violate, before)
	return rep
}

// waitManifestStep2Claims polls a job checkpoint manifest until it records
// at least n Step 2 claims.
func waitManifestStep2Claims(path string, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if man, err := manifest.Load(path); err == nil && len(man.Step2) >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitJobTerminal polls a job until it reaches a terminal state.
func waitJobTerminal(m *server.Manager, id string, timeout time.Duration) (server.JobRecord, bool) {
	deadline := time.Now().Add(timeout)
	for {
		r, err := m.Get(id)
		if err == nil && r.State.Terminal() {
			return r, true
		}
		if time.Now().After(deadline) {
			return r, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ServerCampaign executes runs sequential server scenarios with per-run
// seeds derived from the root seed; see Campaign for the loop contract.
func (e *Engine) ServerCampaign(ctx context.Context, rootSeed int64, runs int, duration time.Duration, baseDir string) (*Report, error) {
	return e.campaign(ctx, "server", e.RunServerOne, rootSeed, runs, duration, baseDir)
}

// ServerReplay executes the single server scenario identified by its
// literal seed; see Replay.
func (e *Engine) ServerReplay(ctx context.Context, seed int64, baseDir string) (*Report, error) {
	return e.replay(ctx, "server", e.RunServerOne, seed, baseDir)
}
