package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/store"
)

// TestOutOfCoreBuildByteIdentical is the tentpole acceptance scenario: a
// per-partition memory budget far below every partition's predicted table
// footprint forces the sort-merge spill path, and the result must be
// byte-identical to the unconstrained in-core build.
func TestOutOfCoreBuildByteIdentical(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()

	oracle, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serializeGraph(t, oracle.Graph)
	naive := graph.BuildNaive(reads, cfg.K)

	spillCfg := cfg
	spillCfg.PartitionMemoryBudgetBytes = 2048
	res, err := Build(reads, spillCfg)
	if err != nil {
		t.Fatalf("out-of-core build failed: %v", err)
	}
	if !res.Graph.Equal(naive) {
		t.Fatal("out-of-core graph differs from the naive reference")
	}
	if got := serializeGraph(t, res.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("out-of-core graph is not byte-identical to the in-core build")
	}

	sp := res.Stats.Spill
	if sp.Partitions == 0 {
		t.Fatal("no partitions spilled under a 2 KiB partition budget")
	}
	if sp.Runs == 0 || sp.SpilledBytes == 0 {
		t.Fatalf("spill accounting empty: %+v", sp)
	}
	if sp.AutoRouted != 0 {
		t.Fatalf("auto-routed = %d, want 0 (explicit partition budget)", sp.AutoRouted)
	}
	if o := oracle.Stats.Spill; o.Partitions != 0 || o.Runs != 0 {
		t.Fatalf("unconstrained build reports spill activity: %+v", o)
	}
}

// TestOutOfCoreCheckpointedArtifacts builds the same input in-core and
// out-of-core through checkpointed stores and asserts every published
// subgraph file is byte-identical, the finished manifest carries no spill
// claims, and no spill run files survive Step 2 completion.
func TestOutOfCoreCheckpointedArtifacts(t *testing.T) {
	reads := tinyReads(t)

	inCfg, inDir := ckConfig(t)
	buildCheckpointed(t, reads, inCfg)

	spillCfg, spillDir := ckConfig(t)
	spillCfg.PartitionMemoryBudgetBytes = 2048
	res := buildCheckpointed(t, reads, spillCfg)
	if res.Stats.Spill.Partitions == 0 {
		t.Fatal("no partitions spilled under a 2 KiB partition budget")
	}

	for i := 0; i < inCfg.NumPartitions; i++ {
		name := subgraphFile(i)
		want, err := os.ReadFile(dataFile(inDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dataFile(spillDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between in-core and out-of-core builds", name)
		}
	}

	man, err := manifest.Load(filepath.Join(spillDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.SpillRuns) != 0 || len(man.SpillDone) != 0 {
		t.Fatalf("finished manifest retains spill claims: %d runs, %d done",
			len(man.SpillRuns), len(man.SpillDone))
	}
	spillRoot := filepath.Join(spillDir, "data", "spill")
	err = filepath.WalkDir(spillRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return fmt.Errorf("leftover spill run file %s", path)
		}
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill directory not cleaned after completion: %v", err)
	}
}

// TestUnclaimedSpillRunsAreRemoved: without a checkpoint nothing will ever
// claim a spilled partition's runs, so they go — merge intermediates
// included — once its subgraph is published, and the build's store keeps
// only what the finish reads.
func TestUnclaimedSpillRunsAreRemoved(t *testing.T) {
	cfg := tinyConfig()
	cfg.PartitionMemoryBudgetBytes = 2048
	res, err := Build(tinyReads(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Stats.Spill; sp.Runs == 0 || sp.MergePasses <= int64(sp.Partitions) {
		t.Fatalf("spill %+v: the build must spill, with merge intermediates", sp)
	}
	names, err := res.published.List()
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, name := range names {
		if strings.HasPrefix(name, "spill/") {
			left = append(left, name)
		}
	}
	if len(left) > 0 {
		t.Fatalf("%d spill files kept in the build's store, e.g. %q", len(left), left[0])
	}
}

// TestSpillLeavesNoDirectories: a finished checkpointed spill build, one
// process or -workers workers, leaves no spill directory behind — the run
// files go, and so do the directories that held them.
func TestSpillLeavesNoDirectories(t *testing.T) {
	reads := tinyReads(t)
	noSpillDir := func(t *testing.T, dir string) {
		t.Helper()
		if _, err := os.Stat(dataFile(dir, "spill")); !os.IsNotExist(err) {
			t.Errorf("spill directory left behind: %v", err)
		}
	}
	t.Run("single", func(t *testing.T) {
		cfg, dir := ckConfig(t)
		cfg.PartitionMemoryBudgetBytes = 2048
		if res := buildCheckpointed(t, reads, cfg); res.Stats.Spill.Partitions == 0 {
			t.Fatal("no partition spilled")
		}
		noSpillDir(t, dir)
	})
	t.Run("workers", func(t *testing.T) {
		cfg, dir := ckConfig(t)
		cfg.PartitionMemoryBudgetBytes = 2048
		ctx := context.Background()
		plan, err := PrepareDistBuild(ctx, reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		worker, err := NewDistWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range plan.Pending() {
			work, err := worker.Construct(ctx, i, FencedName(i, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.PromoteFenced(ctx, i, 1, work); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := plan.Finish(DistStats{}); err != nil {
			t.Fatal(err)
		}
		noSpillDir(t, dir)
	})
}

// TestOutOfCoreAutoRoute covers the clamp-to-run-alone replacement: with no
// per-partition budget, a partition whose predicted table exceeds the whole
// build's memory budget is routed out-of-core with a logged warning instead
// of being admitted alone over budget.
func TestOutOfCoreAutoRoute(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	oracle, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serializeGraph(t, oracle.Graph)

	var mu sync.Mutex
	var logs []string
	autoCfg := cfg
	autoCfg.MemoryBudgetBytes = 4096
	autoCfg.Logf = func(format string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, a...))
		mu.Unlock()
	}
	res, err := Build(reads, autoCfg)
	if err != nil {
		t.Fatalf("auto-routed build failed: %v", err)
	}
	if got := serializeGraph(t, res.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("auto-routed graph is not byte-identical to the in-core build")
	}
	sp := res.Stats.Spill
	if sp.AutoRouted == 0 {
		t.Fatalf("auto-routed = 0 under a 4 KiB build budget: %+v", sp)
	}
	if sp.AutoRouted != sp.Partitions {
		t.Fatalf("auto-routed = %d but spilled = %d, want all spills auto-routed",
			sp.AutoRouted, sp.Partitions)
	}
	mu.Lock()
	defer mu.Unlock()
	warned := false
	for _, line := range logs {
		if strings.Contains(line, "auto-routing") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no auto-routing warning logged; logs = %q", logs)
	}
}

// TestOutOfCoreMergeOnlyResume crashes a checkpointed out-of-core build at
// the merge fault point — after at least one partition journalled all its
// runs and claimed spill-done, which it does only when its merge needs a
// reduction pass — then resumes with the same budget. The resume must take
// the merge-only path (runs verified, scan skipped) and converge
// byte-identically to the in-core oracle.
func TestOutOfCoreMergeOnlyResume(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := spillDurabilityConfig(t)
	oracleCfg := tinyConfig()
	oracleCfg.NumPartitions = cfg.NumPartitions
	oracle, err := Build(reads, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serializeGraph(t, oracle.Graph)

	plan := faultinject.Plan{
		CancelPoints: []faultinject.PointFault{{Point: "step2.spill.merge", Hit: 1}},
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx = plan.ApplyPoints(ctx, cancel)
	if _, err := BuildContext(ctx, reads, cfg); err == nil {
		t.Fatal("build survived a cancel armed at step2.spill.merge")
	} else if !errors.Is(err, faultinject.ErrPointCanceled) {
		t.Fatalf("crash cause = %v, want ErrPointCanceled", err)
	}

	man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.SpillDone) == 0 {
		t.Fatal("no spill-done claim journalled before the merge crash")
	}
	if len(man.SpillRuns) == 0 {
		t.Fatal("no spill runs journalled before the merge crash")
	}

	resumeCfg := cfg
	resumeCfg.Checkpoint.Resume = true
	opened := &openRecorder{opened: map[string]bool{}}
	resumeCfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		opened.PartitionStore = st
		return opened
	}
	res := buildCheckpointed(t, reads, resumeCfg)
	if got := serializeGraph(t, res.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("resumed out-of-core build is not byte-identical to the oracle")
	}
	for _, p := range man.SpillDone {
		if opened.opened[superkmerFile(p)] {
			t.Errorf("partition %d's scan was claimed, yet the resume re-scanned it", p)
		}
	}
	if res.Stats.Spill.Partitions == 0 {
		t.Fatal("resume reports no spilled partitions")
	}

	final, err := manifest.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(final.SpillRuns) != 0 || len(final.SpillDone) != 0 {
		t.Fatal("resumed build left spill claims in the finished manifest")
	}
}

// TestOutOfCoreDiskFull exhausts the store's capacity budget while spill
// runs are being published. The build must fail with the typed
// store.ErrDiskFull (deterministic — no retry storm), leave a manifest
// Scrub verifies without damage, and a fault-free resume in the same
// directory must converge byte-identically to the in-core oracle.
func TestOutOfCoreDiskFull(t *testing.T) {
	reads := tinyReads(t)
	oracleCfg := tinyConfig()
	oracle, err := Build(reads, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serializeGraph(t, oracle.Graph)

	// Size the budget from a fault-free probe: all of Step 1 plus one
	// spill run, so the disk fills while the scan is still spilling.
	probeCfg, probeDir := ckConfig(t)
	probeCfg.PartitionMemoryBudgetBytes = 2048
	buildCheckpointed(t, reads, probeCfg)
	probe, err := manifest.Load(filepath.Join(probeDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var budget int64
	for _, rec := range probe.Step1 {
		budget += rec.Bytes
	}
	budget += 256 // roughly one small run: header + a few records

	cfg, dir := ckConfig(t)
	cfg.PartitionMemoryBudgetBytes = 2048
	cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		fs := faultinject.WrapStore(st)
		fs.SetCapacityBytes(budget)
		return fs
	}
	_, err = Build(reads, cfg)
	if !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("exhausted capacity mid-spill: err = %v, want store.ErrDiskFull", err)
	}

	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestPresent || !rep.Step1Done {
		t.Fatalf("disk-full spill run left untrustworthy manifest: %+v", rep)
	}
	if rep.Step1Damaged != 0 || rep.Step2Damaged != 0 || rep.SpillDamaged != 0 {
		t.Fatalf("disk-full spill run left damaged claims: %+v", rep)
	}

	resumeCfg := cfg
	resumeCfg.StoreWrap = nil
	resumeCfg.Checkpoint.Resume = true
	res := buildCheckpointed(t, reads, resumeCfg)
	if got := serializeGraph(t, res.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("resume after mid-spill disk-full is not byte-identical to the oracle")
	}
	if res.Stats.Spill.Partitions == 0 {
		t.Fatal("resume reports no spilled partitions")
	}
}

// TestOutOfCoreAdmissionWeight pins the gate semantics for spilling
// partitions: with a build memory budget smaller than one partition's
// predicted table but larger than the partition spill budget, the spilled
// partitions must be admitted by run-buffer weight — the build completes
// instead of deadlocking on an unadmittable table prediction.
func TestOutOfCoreAdmissionWeight(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	oracle, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	gated := cfg
	gated.PartitionMemoryBudgetBytes = 1024
	gated.MemoryBudgetBytes = 4096
	res, err := Build(reads, gated)
	if err != nil {
		t.Fatalf("gated out-of-core build failed: %v", err)
	}
	if !res.Graph.Equal(oracle.Graph) {
		t.Fatal("gated out-of-core graph differs from the in-core build")
	}
	if res.Stats.Spill.Partitions == 0 {
		t.Fatal("no partitions spilled under a 1 KiB partition budget")
	}
	if res.Stats.Spill.AutoRouted != 0 {
		t.Fatal("explicit partition budget must not count as auto-routed")
	}
	if res.Stats.PeakMemoryBytes <= 0 {
		t.Fatal("peak memory estimate missing")
	}
}
