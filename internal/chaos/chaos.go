// Package chaos is the randomized fault-schedule engine for the ParaHash
// build pipeline. From one root seed it derives a deterministic, replayable
// fault scenario per run — composing store IO faults (transient and
// persistent failures, served-byte corruption, disk-full capacity budgets,
// slow IO), processor faults (drop-outs, dead-on-arrival devices, scripted
// per-partition kernel failures and hangs), tight memory budgets, and
// mid-build cancellation at named pipeline points — then executes a
// checkpointed build under that scenario and differentially checks it
// against a fault-free oracle.
//
// The invariant contract, asserted on every run:
//
//   - the build either completes with a graph byte-identical to the
//     fault-free oracle, or fails with a typed, classified error;
//   - a failed build leaves a consistent checkpoint: Scrub reports no
//     damaged manifest claims, and a fault-free -resume from that
//     checkpoint converges to the oracle byte-for-byte;
//   - the memory-admission gate's accounting returns to zero (no leaked
//     admissions) on every completed build, faulted or not;
//   - no goroutines leak across a run.
//
// Scenarios are deterministic functions of their seed: the same seed
// replays the same fault schedule, so a violation found in a long soak is
// reproduced with `cmd/chaos -seed <seed> -runs 1`. (Wall-clock-dependent
// faults — stall points released by a delayed cancel, slow-IO delays —
// may resolve at different build positions across replays; the invariants
// hold on every resolution, which is what the checker asserts.)
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"parahash/internal/core"
	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/msp"
	"parahash/internal/pipeline"
	"parahash/internal/simulate"
	"parahash/internal/store"
)

// Profile bundles a dataset and build shape for a chaos campaign.
type Profile struct {
	// Name is the profile's CLI name.
	Name string
	// Sim generates the input reads (deterministically, via its own seed).
	Sim simulate.Profile
	// Partitions, CPUThreads and NumGPUs shape the build.
	Partitions int
	CPUThreads int
	NumGPUs    int
}

// Profiles lists the available profile names.
func Profiles() []string { return []string{"small", "medium"} }

// ProfileByName resolves a CLI profile name.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "small":
		// The CI smoke profile: one tiny dataset, enough partitions for
		// faults to land mid-build, a CPU+GPU mix so processor faults
		// exercise quarantine and re-queueing.
		return Profile{Name: "small", Sim: simulate.TinyProfile(), Partitions: 16, CPUThreads: 4, NumGPUs: 1}, nil
	case "medium":
		// The soak profile: a 3x dataset and more partitions, so capacity
		// budgets and cancel points land across a wider range of build
		// positions.
		return Profile{Name: "medium", Sim: simulate.TinyProfile().Scale(3), Partitions: 32, CPUThreads: 4, NumGPUs: 2}, nil
	default:
		return Profile{}, fmt.Errorf("chaos: unknown profile %q (have %v)", name, Profiles())
	}
}

// Scenario is one run's fully materialised fault schedule, a deterministic
// function of its seed.
type Scenario struct {
	// Seed derives every random choice below.
	Seed int64
	// Plan carries the store, processor and point faults.
	Plan faultinject.Plan
	// MemoryBudgetBytes, when positive, runs Step 2 under a tight
	// admission budget.
	MemoryBudgetBytes int64
	// PartitionMemoryBudgetBytes, when positive, is drawn far below any
	// partition's predicted table so every partition takes the out-of-core
	// sort-merge path. The oracle is always in-core, so a completed spilling
	// run doubles as a full spill-vs-in-core differential check.
	PartitionMemoryBudgetBytes int64
	// PartitionDeadline arms the per-attempt watchdog; always set when the
	// plan hangs processor calls, so a wedged kernel is abandoned instead
	// of wedging the run.
	PartitionDeadline time.Duration
	// CancelAfter, when positive, cancels the build context this long
	// after it starts — the operator-interrupt dimension, and the release
	// mechanism for armed stall points.
	CancelAfter time.Duration
	// Faults describes the schedule for the report.
	Faults []string
}

// GenerateScenario derives the seed's scenario for a profile. Every fault
// dimension is included independently with a fixed probability, so a long
// campaign covers single faults, stacked faults and the fault-free
// baseline.
func GenerateScenario(seed int64, prof Profile) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed}
	pick := func(p float64) bool { return rng.Float64() < p }
	part := func() int { return rng.Intn(prof.Partitions) }
	note := func(format string, args ...any) {
		s.Faults = append(s.Faults, fmt.Sprintf(format, args...))
	}

	// Transient superkmer read faults: Step 2's retries must absorb them.
	if pick(0.45) {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			f := faultinject.StoreFault{File: core.SuperkmerFile(part()), Times: 1 + rng.Intn(2)}
			s.Plan.ReadFaults = append(s.Plan.ReadFaults, f)
			note("read-fault %s x%d", f.File, f.Times)
		}
	}
	// A persistent read fault: the partition can never be read, so the
	// build must fail typed after exhausting retries.
	if pick(0.1) {
		f := faultinject.StoreFault{File: core.SuperkmerFile(part()), Times: -1}
		s.Plan.ReadFaults = append(s.Plan.ReadFaults, f)
		note("read-fault %s persistent", f.File)
	}
	// Served-byte corruption: the msp integrity footer must catch it; a
	// transient corruption recovers on re-read, a persistent one fails
	// typed with ErrCorruptPartition.
	if pick(0.3) {
		times := 1 + rng.Intn(2)
		if pick(0.2) {
			times = -1
		}
		f := faultinject.StoreFault{File: core.SuperkmerFile(part()), Times: times, Corrupt: true}
		s.Plan.ReadFaults = append(s.Plan.ReadFaults, f)
		note("corrupt-read %s x%d", f.File, f.Times)
	}
	// Transient subgraph write faults: subgraph writes are idempotent
	// (Create truncates), so retries must absorb them. Superkmer files are
	// deliberately NOT write-faulted: Step 1 sinks are append streams
	// whose chunks are not idempotently retryable at the file level — the
	// capacity budget below covers Step 1 write failure instead.
	if pick(0.35) {
		f := faultinject.StoreFault{File: core.SubgraphFile(part()), Times: 1 + rng.Intn(2)}
		s.Plan.WriteFaults = append(s.Plan.WriteFaults, f)
		note("write-fault %s x%d", f.File, f.Times)
	}
	// Slow IO: latency must never change the result, only the wall clock.
	if pick(0.3) {
		f := faultinject.SlowFault{
			File:  core.SuperkmerFile(part()),
			Times: 1 + rng.Intn(3),
			Delay: time.Duration(1+rng.Intn(4)) * time.Millisecond,
		}
		s.Plan.SlowReads = append(s.Plan.SlowReads, f)
		note("slow-read %s x%d %v", f.File, f.Times, f.Delay)
	}
	// Disk-full: a capacity budget drawn wide enough to exhaust anywhere
	// from mid-Step-1 to never, so both graceful ErrDiskFull failure and
	// near-miss completion are exercised.
	if pick(0.25) {
		s.Plan.CapacityBytes = 16<<10 + rng.Int63n(2<<20)
		note("capacity %d bytes", s.Plan.CapacityBytes)
	}
	// Processor faults: drop-outs, DOA devices, scripted per-call kernel
	// failures and hangs. At least one processor always stays healthy-ish
	// (quarantine handles the rest); an all-DOA fleet fails typed with
	// ErrNoHealthyWorkers, which is also a legal outcome.
	if pick(0.4) {
		procs := 1 + prof.NumGPUs // CPU + GPUs
		target := rng.Intn(procs)
		pf := faultinject.ProcessorFault{Proc: target}
		switch rng.Intn(4) {
		case 0:
			pf.DieAfter = 1 + rng.Intn(3)
			note("proc %d dies after %d", target, pf.DieAfter)
		case 1:
			pf.DeadOnArrival = true
			note("proc %d dead on arrival", target)
		case 2:
			pf.FailStep2Calls = []int{rng.Intn(4)}
			note("proc %d fails step2 call %d", target, pf.FailStep2Calls[0])
		case 3:
			pf.HangStep2Calls = []int{rng.Intn(4)}
			s.PartitionDeadline = 250 * time.Millisecond
			note("proc %d hangs step2 call %d (watchdog armed)", target, pf.HangStep2Calls[0])
		}
		s.Plan.ProcessorFaults = append(s.Plan.ProcessorFaults, pf)
	}
	// Tight memory budget: Step 2 serialises under admission instead of
	// running wide; the graph must not change.
	if pick(0.3) {
		s.MemoryBudgetBytes = 64<<10 + rng.Int63n(1<<20)
		note("memory budget %d bytes", s.MemoryBudgetBytes)
	}
	// Mid-build cancellation at a named point — the in-process analogue of
	// a crash at that site: only published files and journalled manifest
	// entries survive for the resume, exactly as after a SIGKILL.
	if pick(0.25) {
		point := "step2.partition"
		hit := 1 + rng.Intn(prof.Partitions)
		if pick(0.3) {
			point, hit = "step1.published", 1
		}
		s.Plan.CancelPoints = append(s.Plan.CancelPoints, faultinject.PointFault{Point: point, Hit: hit})
		note("cancel at %s hit %d", point, hit)
	}
	// A stall point wedges the build at a named site until the external
	// cancel below releases it — the hung-build-then-operator-interrupt
	// scenario.
	if pick(0.12) {
		hit := 1 + rng.Intn(prof.Partitions)
		s.Plan.StallPoints = append(s.Plan.StallPoints, faultinject.PointFault{Point: "step2.partition", Hit: hit})
		s.CancelAfter = time.Duration(50+rng.Intn(100)) * time.Millisecond
		note("stall at step2.partition hit %d, cancel after %v", hit, s.CancelAfter)
	}
	rng.Intn(3) // the retired table-backend draw: pinned seeds keep their schedules

	// The out-of-core dimension draws last, so pinned seeds replay what they
	// drew before it existed: a tight per-partition budget forces every
	// partition through the sort-merge spill path, optionally stacked with
	// faulted spill IO and crashes at the spill-specific points (mid-scan,
	// with some runs journalled; and between scan and merge, the merge-only
	// resume window).
	if pick(0.3) {
		s.PartitionMemoryBudgetBytes = 512 + rng.Int63n(8<<10)
		note("partition memory budget %d bytes (out-of-core step 2)", s.PartitionMemoryBudgetBytes)
		if pick(0.35) {
			f := faultinject.StoreFault{File: core.SpillRunFile(part(), rng.Intn(2)), Times: 1 + rng.Intn(2)}
			s.Plan.WriteFaults = append(s.Plan.WriteFaults, f)
			note("write-fault %s x%d", f.File, f.Times)
		}
		if pick(0.25) {
			point := "step2.spill"
			if pick(0.5) {
				point = "step2.spill.merge"
			}
			hit := 1 + rng.Intn(prof.Partitions)
			s.Plan.CancelPoints = append(s.Plan.CancelPoints, faultinject.PointFault{Point: point, Hit: hit})
			note("cancel at %s hit %d", point, hit)
		}
	}

	if len(s.Faults) == 0 {
		note("fault-free baseline")
	}
	return s
}

// errExternalCancel is the cause installed by a scenario's CancelAfter —
// the scripted operator interrupt.
var errExternalCancel = errors.New("chaos: scripted mid-build cancellation")

// typedErrors is the closed set of failure classifications a faulted build
// is allowed to die with. Anything else — a raw fmt.Errorf, a panic turned
// error, an unwrapped syscall error — is an invariant violation: operators
// must be able to dispatch on the failure class.
var typedErrors = []error{
	context.Canceled,
	context.DeadlineExceeded,
	core.ErrCanceled,
	faultinject.ErrInjected,
	faultinject.ErrProcessorDead,
	faultinject.ErrPointCanceled,
	errExternalCancel,
	store.ErrDiskFull,
	store.ErrNotFound,
	pipeline.ErrNoHealthyWorkers,
	pipeline.ErrAttemptTimeout,
	msp.ErrCorrupt,
	msp.ErrCorruptPartition,
	device.ErrDeviceMemory,
}

func classifyFailure(err error) (string, bool) {
	for _, t := range typedErrors {
		if errors.Is(err, t) {
			return t.Error(), true
		}
	}
	return "", false
}

// Engine runs seeded chaos scenarios for one profile against a cached
// fault-free oracle.
type Engine struct {
	prof        Profile
	reads       []fastq.Read
	baseCfg     core.Config
	oracleBytes []byte
}

// NewEngine generates the profile's dataset and builds the fault-free
// oracle the differential checker compares every run against.
func NewEngine(prof Profile) (*Engine, error) {
	d, err := simulate.Generate(prof.Sim)
	if err != nil {
		return nil, fmt.Errorf("chaos: generating %s dataset: %w", prof.Name, err)
	}
	cfg := core.DefaultConfig()
	cfg.NumPartitions = prof.Partitions
	cfg.CPUThreads = prof.CPUThreads
	cfg.NumGPUs = prof.NumGPUs
	// Every build is judged by the bytes that ship: what WriteGraph streams
	// from the published subgraph files, as the CLI and parahashd write it.
	cfg.KeepSubgraphs = false
	e := &Engine{prof: prof, reads: d.Reads, baseCfg: cfg}

	oracle, err := core.Build(e.reads, e.baseCfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free oracle build failed: %w", err)
	}
	e.oracleBytes, err = written(oracle)
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free oracle finish failed: %w", err)
	}
	return e, nil
}

// OracleBytes returns the oracle graph's canonical serialisation.
func (e *Engine) OracleBytes() []byte { return e.oracleBytes }

// written is the graph a finished build writes (Result.WriteGraph).
func written(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if _, _, err := res.WriteGraph(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (e *Engine) inputLabel() string { return "chaos:" + e.prof.Name }

// scenarioConfig assembles the faulted build's config: checkpointed into
// dir, fault wrappers installed, scenario knobs applied.
func (e *Engine) scenarioConfig(s Scenario, dir string) core.Config {
	cfg := e.baseCfg
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir, InputLabel: e.inputLabel()}
	cfg.MemoryBudgetBytes = s.MemoryBudgetBytes
	cfg.PartitionMemoryBudgetBytes = s.PartitionMemoryBudgetBytes
	if s.PartitionDeadline > 0 {
		cfg.Resilience.PartitionDeadline = s.PartitionDeadline
	}
	plan := s.Plan
	cfg.ProcWrap = plan.WrapProcessors
	cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		fs := faultinject.WrapStore(st)
		plan.ApplyStore(fs)
		return fs
	}
	return cfg
}

// RunOne derives the seed's scenario and executes it in dir, checking
// every invariant. It always returns a report; violations are carried
// inside it.
func (e *Engine) RunOne(ctx context.Context, run int, seed int64, dir string) RunReport {
	rep := e.RunScenario(ctx, GenerateScenario(seed, e.prof), dir)
	rep.Run = run
	return rep
}

// RunScenario executes one materialised scenario in dir and checks every
// invariant — the entry point for replaying a handcrafted or saved
// schedule.
func (e *Engine) RunScenario(ctx context.Context, s Scenario, dir string) (rep RunReport) {
	rep = RunReport{Seed: s.Seed}
	start := time.Now()
	defer func() { rep.Seconds = time.Since(start).Seconds() }()

	rep.Faults = s.Faults
	violate := func(invariant, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}

	before := runtime.NumGoroutine()

	buildCtx, cancel := context.WithCancelCause(ctx)
	buildCtx = s.Plan.ApplyPoints(buildCtx, cancel)
	var timer *time.Timer
	if s.CancelAfter > 0 {
		timer = time.AfterFunc(s.CancelAfter, func() { cancel(errExternalCancel) })
	}
	res, err := core.BuildContext(buildCtx, e.reads, e.scenarioConfig(s, dir))
	if timer != nil {
		timer.Stop()
	}
	cancel(nil)
	// The finish reads through the faulted store too; its failure is the
	// build's, judged the same way.
	var got []byte
	if err == nil {
		got, err = written(res)
	}

	switch {
	case err == nil:
		rep.Outcome = "completed"
		if !bytes.Equal(got, e.oracleBytes) {
			violate("byte-identical", "faulted build completed with a graph that differs from the oracle (%d vs %d bytes)",
				len(got), len(e.oracleBytes))
		}
		checkGateBalance(&rep, violate, res)
	default:
		class, ok := classifyFailure(err)
		rep.Error = err.Error()
		if !ok {
			rep.Outcome = "failed-untyped"
			violate("typed-error", "build failed with unclassified error: %v", err)
		} else {
			rep.Outcome = "failed-typed"
			rep.ErrorClass = class
		}
		// A failed build must leave a checkpoint Scrub verifies
		// undamaged...
		scrub, serr := core.Scrub(dir)
		if serr != nil {
			violate("consistent-checkpoint", "scrub failed: %v", serr)
		} else if scrub.Step1Damaged != 0 || scrub.Step2Damaged != 0 || scrub.SpillDamaged != 0 {
			violate("consistent-checkpoint", "scrub found damaged claims: %+v", scrub)
		}
		// ...and from which a fault-free resume converges to the oracle. The
		// resume keeps the scenario's partition budget (the fingerprint
		// excludes it — spill output is byte-identical), so a run crashed
		// between scan and merge exercises the merge-only resume path here.
		resumeCfg := e.baseCfg
		resumeCfg.PartitionMemoryBudgetBytes = s.PartitionMemoryBudgetBytes
		resumeCfg.Checkpoint = core.CheckpointConfig{Dir: dir, InputLabel: e.inputLabel(), Resume: true}
		resumed, rerr := core.BuildContext(ctx, e.reads, resumeCfg)
		if rerr != nil {
			violate("resume-converges", "fault-free resume failed: %v", rerr)
			break
		}
		rep.Resumed = true
		got, werr := written(resumed)
		if werr != nil {
			violate("resume-converges", "fault-free resume's finish failed: %v", werr)
		} else if !bytes.Equal(got, e.oracleBytes) {
			violate("resume-converges", "resumed graph differs from the oracle (%d vs %d bytes)",
				len(got), len(e.oracleBytes))
		}
		checkGateBalance(&rep, violate, resumed)
	}

	checkGoroutines(violate, before)
	return rep
}

// checkGateBalance asserts the admission gate's accounting drained to zero.
func checkGateBalance(rep *RunReport, violate func(string, string, ...any), res *core.Result) {
	if b := res.Stats.Step1.AdmissionBalanceBytes; b != 0 {
		violate("gate-balance", "step 1 admission balance %d bytes after drain", b)
	}
	if b := res.Stats.Step2.AdmissionBalanceBytes; b != 0 {
		violate("gate-balance", "step 2 admission balance %d bytes after drain", b)
	}
}

// checkGoroutines is the leak fence: the goroutine count must settle back
// to at most its pre-run level (plus scheduler slack) once the build and
// its watchdogs wind down.
func checkGoroutines(violate func(string, string, ...any), before int) {
	const slack = 2
	deadline := time.Now().Add(3 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			violate("goroutine-leak", "%d goroutines before run, %d still live after settle", before, now)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Campaign executes runs sequential scenarios with per-run seeds derived
// from the root seed, each in a fresh checkpoint directory under baseDir
// (removed afterwards unless the run violated an invariant). A
// zero-duration campaign runs exactly `runs` scenarios; with a positive
// duration it keeps deriving further runs until the budget elapses.
func (e *Engine) Campaign(ctx context.Context, rootSeed int64, runs int, duration time.Duration, baseDir string) (*Report, error) {
	return e.campaign(ctx, "build", e.RunOne, rootSeed, runs, duration, baseDir)
}

// runner executes one seeded scenario in a fresh directory; the build and
// server modes each provide one.
type runner func(ctx context.Context, run int, seed int64, dir string) RunReport

func (e *Engine) campaign(ctx context.Context, mode string, run runner, rootSeed int64, runs int, duration time.Duration, baseDir string) (*Report, error) {
	rep := &Report{
		Format:   FormatV1,
		Mode:     mode,
		Profile:  e.prof.Name,
		RootSeed: rootSeed,
		Started:  time.Now().UTC().Format(time.RFC3339),
	}
	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	for i := 0; ; i++ {
		if ctx.Err() != nil {
			break
		}
		if i >= runs && (deadline.IsZero() || time.Now().After(deadline)) {
			break
		}
		if err := e.campaignRun(ctx, rep, run, i, DeriveSeed(rootSeed, i), baseDir); err != nil {
			return rep, err
		}
	}
	rep.Finished = time.Now().UTC().Format(time.RFC3339)
	return rep, nil
}

// Replay executes the single scenario identified by its literal seed — the
// seed printed in a report's run entry, not a root seed — and returns a
// one-run report.
func (e *Engine) Replay(ctx context.Context, seed int64, baseDir string) (*Report, error) {
	return e.replay(ctx, "build", e.RunOne, seed, baseDir)
}

func (e *Engine) replay(ctx context.Context, mode string, run runner, seed int64, baseDir string) (*Report, error) {
	rep := &Report{
		Format:   FormatV1,
		Mode:     mode,
		Profile:  e.prof.Name,
		RootSeed: seed,
		Started:  time.Now().UTC().Format(time.RFC3339),
	}
	if err := e.campaignRun(ctx, rep, run, 0, seed, baseDir); err != nil {
		return rep, err
	}
	rep.Finished = time.Now().UTC().Format(time.RFC3339)
	return rep, nil
}

// campaignRun executes one seeded run in a fresh checkpoint directory,
// folding its outcome into the report. Green runs' directories are
// removed; violating runs keep theirs for debugging.
func (e *Engine) campaignRun(ctx context.Context, rep *Report, run runner, i int, seed int64, baseDir string) error {
	dir, err := os.MkdirTemp(baseDir, fmt.Sprintf("chaos-run%04d-", i))
	if err != nil {
		return fmt.Errorf("chaos: creating run dir: %w", err)
	}
	r := run(ctx, i, seed, dir)
	if len(r.Violations) == 0 {
		os.RemoveAll(dir)
		rep.Passed++
	} else {
		r.KeptDir = dir
		rep.Failed++
	}
	rep.Runs = append(rep.Runs, r)
	return nil
}

// DeriveSeed maps (rootSeed, run) onto the run's scenario seed with a
// splitmix64 step, so adjacent runs get decorrelated generator streams and
// any single run is replayable from just its own seed.
func DeriveSeed(rootSeed int64, run int) int64 {
	z := uint64(rootSeed) + uint64(run+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
