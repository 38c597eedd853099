package chaos

// Dist-mode chaos: the seeded differential methodology aimed at the
// coordinator/worker distributed build (internal/dist). A scenario draws a
// fleet shape and a per-worker process-fault schedule — SIGKILL mid-lease
// with a published-but-unreported result, a wedge that stops heartbeats
// until lease expiry reclaims the range, a network partition whose
// split-brain worker keeps publishing fenced files nobody will promote,
// and link delays that land dones after their lease already expired (the
// stale-token rejection path) — then runs a distributed build under it.
//
// The dist invariant contract, asserted on every run:
//
//   - the build either completes with a graph byte-identical to the
//     fault-free oracle, or fails with a typed, classified error
//     ("byte-identical" / "typed-error");
//   - a completed build reports coherent governance counters and leaves
//     the checkpoint canonical: no journalled leases, no fenced orphans,
//     scrub-clean ("dist-governance", "lease-clean");
//   - a failed build (fleet death, attempts exhausted) leaves a durable
//     checkpoint from which a fault-free *distributed* resume — a fresh
//     coordinator over the same manifest — converges to the oracle and
//     sweeps every fenced orphan the dead fleet left behind
//     ("consistent-checkpoint", "resume-converges", "lease-clean");
//   - no goroutines leak across kills, hangs and partitions
//     ("goroutine-leak").

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"parahash/internal/core"
	"parahash/internal/diskstore"
	"parahash/internal/dist"
)

// DistScenario is one dist-mode run's materialised schedule, a
// deterministic function of its seed.
type DistScenario struct {
	// Seed derives every random choice below.
	Seed int64
	// Workers is the fleet size.
	Workers int
	// LeaseMS is the lease duration; drawn short so expiry-driven
	// reclamation actually fires within a run.
	LeaseMS int64
	// WorkerFaults scripts each worker's failure mode, keyed by worker id.
	WorkerFaults map[string]dist.Fault
	// PartitionMemoryBudgetBytes, when positive, routes every partition
	// through the out-of-core path on the workers, who spill runs under
	// their own fencing tokens; killed workers' orphaned runs must be swept
	// like fenced subgraphs.
	PartitionMemoryBudgetBytes int64
	// Faults describes the schedule for the report.
	Faults []string
}

// GenerateDistScenario derives the seed's dist scenario for a profile.
// Every worker draws its failure mode independently, so campaigns cover
// the fault-free fleet, single failures, and whole-fleet death (which must
// fail typed and resume cleanly).
func GenerateDistScenario(seed int64, prof Profile) DistScenario {
	rng := rand.New(rand.NewSource(seed))
	s := DistScenario{Seed: seed, WorkerFaults: map[string]dist.Fault{}}
	pick := func(p float64) bool { return rng.Float64() < p }
	note := func(format string, args ...any) {
		s.Faults = append(s.Faults, fmt.Sprintf(format, args...))
	}

	s.Workers = 2 + rng.Intn(3)
	s.LeaseMS = 300 + rng.Int63n(500)
	note("%d workers, %dms leases", s.Workers, s.LeaseMS)

	faulted := false
	for i := 0; i < s.Workers; i++ {
		id := fmt.Sprintf("w%d", i)
		var f dist.Fault
		switch roll := rng.Float64(); {
		case roll < 0.20:
			// SIGKILL with the result published but the done dropped: the
			// fenced orphan must be redone under a new token and swept.
			f.KillAfter = 1 + rng.Intn(3)
			note("worker %s killed at done %d", id, f.KillAfter)
		case roll < 0.35:
			// Wedge: heartbeats stop mid-lease; only expiry reclaims it.
			f.Hang, f.HangAfter = true, 1+rng.Intn(2)
			note("worker %s wedges after done %d", id, f.HangAfter)
		case roll < 0.45:
			// Partition: the split-brain worker keeps constructing, every
			// report is dropped, its leases expire out from under it.
			f.Isolate, f.IsolateAfter = true, 1+rng.Intn(2)
			note("worker %s partitioned after done %d", id, f.IsolateAfter)
		}
		if pick(0.30) {
			// Link delay: dones and heartbeats arrive late, some after
			// their lease expired — the stale-token fencing path.
			f.DelayMS = 5 + rng.Intn(60)
			note("worker %s link delay %dms", id, f.DelayMS)
		}
		if f != (dist.Fault{}) {
			s.WorkerFaults[id] = f
			faulted = true
		}
	}
	if !faulted {
		note("fault-free fleet")
	}
	rng.Intn(3) // the retired table-backend draw: pinned seeds keep their schedules
	// The out-of-core draw comes last, so pinned seeds replay what they drew
	// before it existed: a tight per-partition budget makes every worker construct
	// out-of-core under its fencing token, stacking the spill lifecycle on
	// whatever process faults were drawn above.
	if pick(0.3) {
		s.PartitionMemoryBudgetBytes = 512 + rng.Int63n(8<<10)
		note("partition memory budget %d bytes (out-of-core workers)", s.PartitionMemoryBudgetBytes)
	}
	return s
}

// distTypedErrors is the closed set of failure classifications a faulted
// distributed build may die with, over and above the build-mode set.
var distTypedErrors = []error{
	dist.ErrWorkersExhausted,
	dist.ErrAttemptsExhausted,
}

func classifyDistFailure(err error) (string, bool) {
	for _, t := range distTypedErrors {
		if errors.Is(err, t) {
			return t.Error(), true
		}
	}
	return classifyFailure(err)
}

// RunDistOne derives the seed's dist scenario and executes it in dir.
func (e *Engine) RunDistOne(ctx context.Context, run int, seed int64, dir string) RunReport {
	rep := e.RunDistScenario(ctx, GenerateDistScenario(seed, e.prof), dir)
	rep.Run = run
	return rep
}

// distScenarioConfig assembles the distributed build's config; the same
// config (with Resume set) drives the post-failure recovery coordinator.
func (e *Engine) distScenarioConfig(s DistScenario, dir string) core.Config {
	cfg := e.baseCfg
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir, InputLabel: e.inputLabel()}
	cfg.PartitionMemoryBudgetBytes = s.PartitionMemoryBudgetBytes
	return cfg
}

// RunDistScenario executes one materialised dist scenario in dir and
// checks every dist invariant. It always returns a report; violations are
// carried inside it.
func (e *Engine) RunDistScenario(ctx context.Context, s DistScenario, dir string) (rep RunReport) {
	rep = RunReport{Seed: s.Seed, Faults: s.Faults}
	start := time.Now()
	defer func() { rep.Seconds = time.Since(start).Seconds() }()
	violate := func(invariant, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	before := runtime.NumGoroutine()

	cfg := e.distScenarioConfig(s, dir)
	plan, err := core.PrepareDistBuild(ctx, e.reads, cfg)
	if err != nil {
		rep.Outcome = "failed-untyped"
		violate("dist-lifecycle", "prepare (fault-free step 1) failed: %v", err)
		return rep
	}
	tr := &dist.LocalTransport{Cfg: cfg, Faults: s.WorkerFaults}
	stats, err := dist.Run(ctx, plan, tr, dist.Options{Workers: s.Workers, LeaseMS: s.LeaseMS})
	// A failed finish is judged as a failed run.
	var got []byte
	if err == nil {
		got, err = finished(plan, stats)
	}

	switch {
	case err == nil:
		rep.Outcome = "completed"
		if !bytes.Equal(got, e.oracleBytes) {
			violate("byte-identical", "distributed build completed with a graph that differs from the oracle (%d vs %d bytes)",
				len(got), len(e.oracleBytes))
		}
		checkDistGovernance(violate, s, stats)
		checkDistStoreClean(violate, plan, dir)
	default:
		class, ok := classifyDistFailure(err)
		rep.Error = err.Error()
		if !ok {
			rep.Outcome = "failed-untyped"
			violate("typed-error", "distributed build failed with unclassified error: %v", err)
		} else {
			rep.Outcome = "failed-typed"
			rep.ErrorClass = class
		}
		// A dead fleet must leave a checkpoint Scrub verifies undamaged...
		scrub, serr := core.Scrub(dir)
		if serr != nil {
			violate("consistent-checkpoint", "scrub failed: %v", serr)
		} else if scrub.Step1Damaged != 0 || scrub.Step2Damaged != 0 || scrub.SpillDamaged != 0 {
			violate("consistent-checkpoint", "scrub found damaged claims: %+v", scrub)
		}
		// ...from which a fresh fault-free coordinator resumes to the
		// oracle, sweeping the orphans its predecessor's fleet left.
		resumeCfg := e.distScenarioConfig(s, dir)
		resumeCfg.Checkpoint.Resume = true
		plan2, rerr := core.PrepareDistBuild(ctx, e.reads, resumeCfg)
		if rerr != nil {
			violate("resume-converges", "recovery coordinator prepare failed: %v", rerr)
			break
		}
		stats2, rerr := dist.Run(ctx, plan2, &dist.LocalTransport{Cfg: resumeCfg},
			dist.Options{Workers: s.Workers, LeaseMS: s.LeaseMS})
		if rerr != nil {
			violate("resume-converges", "fault-free distributed resume failed: %v", rerr)
			break
		}
		rep.Resumed = true
		got, ferr := finished(plan2, stats2)
		if ferr != nil {
			violate("resume-converges", "finish: %v", ferr)
		} else if !bytes.Equal(got, e.oracleBytes) {
			violate("resume-converges", "resumed graph differs from the oracle (%d vs %d bytes)",
				len(got), len(e.oracleBytes))
		}
		checkDistStoreClean(violate, plan2, dir)
	}

	checkGoroutines(violate, before)
	return rep
}

// finished finishes a completed distributed build and returns the graph it
// writes.
func finished(plan *core.DistPlan, stats core.DistStats) ([]byte, error) {
	res, err := plan.Finish(stats)
	if err != nil {
		return nil, err
	}
	return written(res)
}

// checkDistGovernance asserts a completed run's counters tell a coherent
// story: the fleet shape is recorded and work was actually leased.
// (Reassignments deliberately carry no cross-check — a worker killed
// mid-lease closes its stream and is revoked without an expiry or a
// quarantine, so reassignment causes are not reconstructible from the
// counters alone.)
func checkDistGovernance(violate func(string, string, ...any), s DistScenario, d core.DistStats) {
	if d.Workers != s.Workers {
		violate("dist-governance", "stats record %d workers, scenario ran %d", d.Workers, s.Workers)
	}
	if d.Spawned < s.Workers {
		violate("dist-governance", "only %d of %d workers spawned", d.Spawned, s.Workers)
	}
	if d.LeaseGrants < 1 {
		violate("dist-governance", "completed with zero lease grants: %+v", d)
	}
}

// checkDistStoreClean asserts the checkpoint ended canonical: no leases
// journalled, no fenced orphans in the store, scrub-clean.
func checkDistStoreClean(violate func(string, string, ...any), plan *core.DistPlan, dir string) {
	if n := len(plan.Manifest().Leases); n != 0 {
		violate("lease-clean", "%d leases still journalled after the run", n)
	}
	ds, err := diskstore.Open(filepath.Join(dir, "data"))
	if err != nil {
		violate("lease-clean", "opening store: %v", err)
		return
	}
	names, err := ds.List()
	if err != nil {
		violate("lease-clean", "listing store: %v", err)
		return
	}
	for _, n := range names {
		if strings.Contains(n, ".t") {
			violate("lease-clean", "fenced orphan %q survived the sweep", n)
		}
	}
	scrub, err := core.Scrub(dir)
	if err != nil {
		violate("lease-clean", "scrub: %v", err)
	} else if !scrub.Clean() {
		violate("lease-clean", "checkpoint not scrub-clean: %+v", scrub)
	}
}

// DistCampaign executes runs sequential dist scenarios with per-run seeds
// derived from the root seed; see Campaign for the loop contract.
func (e *Engine) DistCampaign(ctx context.Context, rootSeed int64, runs int, duration time.Duration, baseDir string) (*Report, error) {
	return e.campaign(ctx, "dist", e.RunDistOne, rootSeed, runs, duration, baseDir)
}

// DistReplay executes the single dist scenario identified by its literal
// seed; see Replay.
func (e *Engine) DistReplay(ctx context.Context, seed int64, baseDir string) (*Report, error) {
	return e.replay(ctx, "dist", e.RunDistOne, seed, baseDir)
}
