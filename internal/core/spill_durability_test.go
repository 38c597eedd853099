package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/graph/graphtest"
	"parahash/internal/manifest"
	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// The durability rule under test, both halves: a file is fsync'd only before
// a claim that names it is journalled, and a claim names every file that is
// ready when it is written. So a spilled partition costs one covering Sync and
// one scan claim however many runs it has, subgraphs are flushed and claimed a
// group at a time, the Step 1 roster after one covering Sync, and files no
// claim ever names — merge intermediates, a dist worker's fenced runs — are
// never synced at all. (The in-core half is in group_commit_test.go.)

// spillDurabilityConfig spills every partition into enough runs (about twenty
// each) that each needs a reduction pass, so merge intermediates exist. The
// budget is set for the folded partitions Step 2 loads: one weighted record
// per repeated k-mer, not one per copy.
func spillDurabilityConfig(t *testing.T) (Config, string) {
	cfg, dir := ckConfig(t)
	cfg.NumPartitions = 2
	cfg.PartitionMemoryBudgetBytes = 16 << 10
	return cfg, dir
}

// scannedRun matches a single-process run name; a dist worker's fenced
// ".t<token>" run does not.
var scannedRun = regexp.MustCompile(`^spill/(\d{4})/run-(\d{4})$`)

// watchedBuild runs a checkpointed build the way BuildContext does, with the
// recording store between the pipeline and the disk and the observer on the
// checkpoint.
func watchedBuild(ctx context.Context, reads []fastq.Read, cfg Config) (*Result, *storetest.JournalWatch, error) {
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer ck.close()
	return watchedBuildOver(ctx, reads, cfg, st, ck)
}

// watchedBuildOver is watchedBuild over an already opened checkpoint, for
// tests that put a store of their own under the recorder.
func watchedBuildOver(ctx context.Context, reads []fastq.Read, cfg Config, st store.PartitionStore, ck *checkpoint) (*Result, *storetest.JournalWatch, error) {
	w := watchCheckpoint(st, ck)
	res, err := buildWithStore(ctx, sliceSource(reads, cfg), cfg, w.Rec, ck)
	return res, w, err
}

// watchCheckpoint puts the recording store over st and the observer on ck.
func watchCheckpoint(st store.PartitionStore, ck *checkpoint) *storetest.JournalWatch {
	w := storetest.NewJournalWatch(storetest.NewRecorder(st))
	ck.onSave = w.Observe
	return w
}

// checkOrdering asserts the rule for one build, finished or killed: every
// name in every saved claim was synced before that save began; nothing but a
// partition file, a subgraph or a scanned run — ordinal below the partition's
// scan count — was ever synced; and nothing the single-process build writes
// was published through the durable Create. scanRuns is the uninterrupted
// build's run count per partition (run boundaries are deterministic).
func checkOrdering(t *testing.T, w *storetest.JournalWatch, scanRuns map[int]int) {
	t.Helper()
	if len(w.Unsynced) > 0 {
		t.Errorf("claims journalled before their files were synced: %v", w.Unsynced)
	}
	for name := range w.Rec.Synced {
		if strings.HasPrefix(name, "superkmers/") || strings.HasPrefix(name, "subgraphs/") {
			continue
		}
		m := scannedRun.FindStringSubmatch(name)
		if m == nil {
			t.Errorf("synced %q: not a partition file, a subgraph or a scanned run", name)
			continue
		}
		part, _ := strconv.Atoi(m[1])
		if run, _ := strconv.Atoi(m[2]); run >= scanRuns[part] {
			t.Errorf("synced %q: a merge intermediate (partition %d scanned %d runs)", name, part, scanRuns[part])
		}
	}
	for name := range w.Rec.Durable {
		t.Errorf("%q was published with its own fsyncs", name)
	}
	for p, n := range w.Claims {
		if n+w.Completions[p] > 2 {
			t.Errorf("partition %d caused %d manifest saves, want at most 2", p, n+w.Completions[p])
		}
	}
}

// checkNoLitter walks a finished checkpoint for what a crash must not leave
// behind once a resume has completed: spill files, in-flight temporaries,
// fenced worker files.
func checkNoLitter(t *testing.T, dir string) {
	t.Helper()
	fenced := regexp.MustCompile(`\.t\d+$`)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "data/spill/") || strings.HasSuffix(rel, ".tmp") || fenced.MatchString(rel) {
			t.Errorf("litter left in the checkpoint: %s", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// resumeAndCheck resumes a killed build and requires the uninterrupted
// build's exact graph, a clean Scrub and no litter. It returns the store
// names the resume opened: a partition's superkmer file is among them only
// if the partition was rescanned rather than merged from claimed runs.
func resumeAndCheck(t *testing.T, reads []fastq.Read, cfg Config, dir string, want []byte) map[string]bool {
	t.Helper()
	opened := &openRecorder{opened: map[string]bool{}}
	cfg.Checkpoint.Resume = true
	cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		opened.PartitionStore = st
		return opened
	}
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(serializeGraph(t, res.Graph), want) {
		t.Fatal("resumed graph is not byte-identical to the uninterrupted build")
	}
	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub after resume not clean: %+v", rep)
	}
	checkNoLitter(t, dir)
	return opened.opened
}

// openRecorder records which names a build opened.
type openRecorder struct {
	store.PartitionStore
	mu     sync.Mutex
	opened map[string]bool
}

func (r *openRecorder) Open(name string) (io.Reader, error) {
	r.mu.Lock()
	r.opened[name] = true
	r.mu.Unlock()
	return r.PartitionStore.Open(name)
}

// killAt returns a context whose build is canceled — the in-process kill —
// at the given hit of a fault point.
func killAt(point string, hit int) (context.Context, context.CancelCauseFunc) {
	plan := faultinject.Plan{CancelPoints: []faultinject.PointFault{{Point: point, Hit: hit}}}
	ctx, cancel := context.WithCancelCause(context.Background())
	return plan.ApplyPoints(ctx, cancel), cancel
}

// uninterruptedGraph is the serialized graph of a fault-free spilled build.
func uninterruptedGraph(t *testing.T, reads []fastq.Read) []byte {
	t.Helper()
	cfg, _ := spillDurabilityConfig(t)
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serializeGraph(t, res.Graph)
}

// TestSpillClaimsOnlySyncedRuns is the ordering test on the out-of-core path:
// for an uninterrupted spilled build and for a kill at every step1.published,
// step2.spill, step2.spill.merge and step2.partition hit, claims name only
// synced files, no merge intermediate is ever synced, a spilled partition
// costs one scan claim and a share of a group's — and every kill resumes to
// the identical graph.
func TestSpillClaimsOnlySyncedRuns(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := spillDurabilityConfig(t)
	res, clean, err := watchedBuild(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeGraph(t, res.Graph)
	np := cfg.NumPartitions
	if res.Stats.Spill.Partitions != np {
		t.Fatalf("%d of %d partitions spilled; the config must spill all", res.Stats.Spill.Partitions, np)
	}
	checkOrdering(t, clean, clean.ScanRuns)
	checkNoLitter(t, dir)
	totalRuns := 0
	for p := 0; p < np; p++ {
		if clean.Claims[p] != 1 || clean.Completions[p] != 1 {
			t.Errorf("partition %d: %d scan claims, %d completions, want one of each", p, clean.Claims[p], clean.Completions[p])
		}
		totalRuns += clean.ScanRuns[p]
	}
	if int64(totalRuns) != res.Stats.Spill.Runs {
		t.Errorf("claimed %d runs, the build spilled %d", totalRuns, res.Stats.Spill.Runs)
	}
	// Step 1's record, one scan claim per spilled partition, one save per
	// commit group.
	if clean.Step2Saves < 1 || clean.Step2Saves > np || clean.Step2Saves != clean.Rec.SubgraphSyncs {
		t.Errorf("%d Step 2 saves for %d commit groups over %d partitions", clean.Step2Saves, clean.Rec.SubgraphSyncs, np)
	}
	if wantSaves := 1 + np + clean.Step2Saves; clean.Saves != wantSaves {
		t.Errorf("%d manifest saves observed, want %d", clean.Saves, wantSaves)
	}
	if want := 2*np + totalRuns; len(clean.Rec.Synced) != want {
		t.Errorf("%d files synced, want %d: the partition files, the subgraphs and the claimed runs", len(clean.Rec.Synced), want)
	}
	intermediates := 0
	for name := range clean.Rec.Volatile {
		if clean.Rec.Synced[name] == 0 {
			intermediates++
		}
	}
	if intermediates == 0 {
		t.Fatal("no merge intermediate was published; the config must force a reduction pass")
	}

	kill := func(point string, hit int) {
		t.Helper()
		cfg, dir := spillDurabilityConfig(t)
		ctx, cancel := killAt(point, hit)
		defer cancel(nil)
		_, w, err := watchedBuild(ctx, reads, cfg)
		if !errors.Is(err, faultinject.ErrPointCanceled) {
			t.Fatalf("%s hit %d: err = %v, want ErrPointCanceled", point, hit, err)
		}
		checkOrdering(t, w, clean.ScanRuns)
		resumeAndCheck(t, reads, cfg, dir, want)
	}
	step := 1
	if testing.Short() {
		step = 7
	}
	for hit := 1; hit <= totalRuns; hit += step {
		kill("step2.spill", hit)
	}
	kill("step1.published", 1)
	for hit := 1; hit <= np; hit++ {
		kill("step2.spill.merge", hit)
		kill("step2.partition", hit)
	}
}

// TestSinglePassSpillIsNotClaimed: a spilled partition whose runs one merge
// pass reads is not worth a claim. A checkpointed build of such partitions
// syncs no run and journals no scan — Step 1's record and one save per commit
// group are all its saves — and a kill at every step2.spill.merge hit
// resumes by re-scanning the partition's superkmer file, to the same graph.
func TestSinglePassSpillIsNotClaimed(t *testing.T) {
	reads := tinyReads(t)
	singlePass := func(t *testing.T) (Config, string) {
		cfg, dir := spillDurabilityConfig(t)
		cfg.PartitionMemoryBudgetBytes *= 4
		return cfg, dir
	}
	cfg, dir := singlePass(t)
	res, clean, err := watchedBuild(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeGraph(t, res.Graph)
	np := cfg.NumPartitions
	sp := res.Stats.Spill
	if sp.Partitions != np || sp.MergePasses != int64(np) || sp.Runs <= int64(np) {
		t.Fatalf("spill %+v: every partition must spill several runs and merge them in one pass", sp)
	}
	checkOrdering(t, clean, nil)
	checkNoLitter(t, dir)
	if len(clean.Claims) != 0 {
		t.Errorf("scans claimed: %v", clean.Claims)
	}
	for name := range clean.Rec.Synced {
		if strings.HasPrefix(name, "spill/") {
			t.Errorf("synced %q", name)
		}
	}
	if clean.Step2Saves < 1 || clean.Step2Saves > np || clean.Step2Saves != clean.Rec.SubgraphSyncs {
		t.Errorf("%d Step 2 saves for %d commit groups over %d partitions", clean.Step2Saves, clean.Rec.SubgraphSyncs, np)
	}
	if wantSaves := 1 + clean.Step2Saves; clean.Saves != wantSaves {
		t.Errorf("%d manifest saves observed, want %d", clean.Saves, wantSaves)
	}

	for hit := 1; hit <= np; hit++ {
		cfg, dir := singlePass(t)
		ctx, cancel := killAt("step2.spill.merge", hit)
		_, w, err := watchedBuild(ctx, reads, cfg)
		cancel(nil)
		if !errors.Is(err, faultinject.ErrPointCanceled) {
			t.Fatalf("hit %d: err = %v, want ErrPointCanceled", hit, err)
		}
		checkOrdering(t, w, nil)
		man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(man.SpillRuns) != 0 || len(man.SpillDone) != 0 {
			t.Fatalf("hit %d: the killed build claimed a scan", hit)
		}
		opened := resumeAndCheck(t, reads, cfg, dir, want)
		rescanned := 0
		for p := 0; p < np; p++ {
			if man.Step2For(p) != nil {
				continue
			}
			rescanned++
			if !opened[superkmerFile(p)] {
				t.Errorf("hit %d: partition %d resumed without re-opening its superkmer file", hit, p)
			}
		}
		if rescanned == 0 {
			t.Errorf("hit %d: every partition was claimed before the kill", hit)
		}
	}
}

// TestResumeSweepsClaimedSpill: a kill between a commit group's save and its
// spill sweep leaves run files under partitions the manifest already claims,
// which a resume skips. The resume's assessment sweeps them: a run planted
// under a claimed partition of a finished spill build is gone after the
// resume, the graph is byte-identical, and the sweep costs no manifest save.
func TestResumeSweepsClaimedSpill(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := spillDurabilityConfig(t)
	cfg.NumPartitions = 4
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Spill.Partitions != cfg.NumPartitions {
		t.Fatalf("spill %+v: every partition must spill", res.Stats.Spill)
	}
	want := writtenGraph(t, res)
	cfg.Checkpoint.Resume = true
	resume := func() (*storetest.JournalWatch, []byte) {
		t.Helper()
		st, ck, err := openCheckpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ck.close()
		res, w, err := watchedBuildOver(context.Background(), reads, cfg, st, ck)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if res.Stats.ResumedPartitions != cfg.NumPartitions {
			t.Fatalf("resumed %d of %d partitions", res.Stats.ResumedPartitions, cfg.NumPartitions)
		}
		return w, writtenGraph(t, res)
	}
	control, _ := resume()

	planted := dataFile(dir, spillRunFile(3, 0))
	if err := os.MkdirAll(filepath.Dir(planted), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planted, []byte("left by a kill before the sweep"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, got := resume()
	if _, err := os.Stat(planted); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%s survived the resume: %v", spillRunFile(3, 0), err)
	}
	checkNoLitter(t, dir)
	if !bytes.Equal(got, want) {
		t.Error("resumed graph is not byte-identical to the finished build's")
	}
	if w.Saves != control.Saves {
		t.Errorf("the sweep cost %d manifest saves, a resume with nothing to sweep %d", w.Saves, control.Saves)
	}
}

// TestResumeMergesVersion1Runs: an older build wrote its runs in PHSR
// version 1. A checkpoint it left with a claimed scan resumes merge-only from
// those runs — no superkmer file of a claimed partition re-opened — to the
// uninterrupted build's graph.
func TestResumeMergesVersion1Runs(t *testing.T) {
	reads := tinyReads(t)
	want := uninterruptedGraph(t, reads)
	cfg, dir := spillDurabilityConfig(t)
	ctx, cancel := killAt("step2.spill.merge", 1)
	_, err := BuildContext(ctx, reads, cfg)
	cancel(nil)
	if !errors.Is(err, faultinject.ErrPointCanceled) {
		t.Fatalf("err = %v, want ErrPointCanceled", err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	man, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.SpillDone) == 0 {
		t.Fatal("no scan was claimed before the kill")
	}
	for i, run := range man.SpillRuns {
		path := dataFile(dir, run.Name)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := graph.NewRunReader(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		g := &graph.Subgraph{K: rr.K()}
		if err := graph.MergeRuns([]*graph.RunReader{rr}, func(v graph.Vertex) error {
			g.Vertices = append(g.Vertices, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		old := graphtest.RunVersion1(g)
		if len(old) <= len(img) {
			t.Fatalf("%s: the version-1 run is %d bytes, the version-2 one %d", run.Name, len(old), len(img))
		}
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		man.SpillRuns[i].Bytes = int64(len(old))
		man.SpillRuns[i].CRC32 = binary.LittleEndian.Uint32(old[len(old)-4:])
	}
	if err := man.Save(manPath); err != nil {
		t.Fatal(err)
	}
	opened := resumeAndCheck(t, reads, cfg, dir, want)
	for _, p := range man.SpillDone {
		if opened[superkmerFile(p)] {
			t.Errorf("partition %d re-scanned instead of merging its version-1 runs", p)
		}
	}
}

// TestResumeDropsMidScanClaims: builds before the single claim journalled
// each run as it landed, so a checkpoint one of them left mid-scan holds run
// claims without the done mark. Resume and Scrub still drop such a
// partition's spill state and re-spill it.
func TestResumeDropsMidScanClaims(t *testing.T) {
	reads := tinyReads(t)
	want := uninterruptedGraph(t, reads)
	for _, scrubFirst := range []bool{false, true} {
		cfg, dir := spillDurabilityConfig(t)
		ctx, cancel := killAt("step2.spill.merge", 1)
		_, err := BuildContext(ctx, reads, cfg)
		cancel(nil)
		if !errors.Is(err, faultinject.ErrPointCanceled) {
			t.Fatalf("err = %v, want ErrPointCanceled", err)
		}
		// Rewrite the claim into what the older build would have left part
		// way through the scan: the first half of the runs, no done mark.
		manPath := filepath.Join(dir, "manifest.json")
		man, err := manifest.Load(manPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.SpillDone) == 0 {
			t.Fatal("no scan was claimed before the kill")
		}
		part := man.SpillDone[0]
		runs := man.SpillRunsFor(part)
		man.DropSpill(part)
		for _, run := range runs[:len(runs)/2] {
			man.AddSpillRun(run)
		}
		if err := man.Save(manPath); err != nil {
			t.Fatal(err)
		}
		if scrubFirst {
			rep, err := Scrub(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ManifestRepaired || rep.SpillDamaged != 0 || len(rep.Swept) == 0 {
				t.Fatalf("scrub of a mid-scan claim: %+v", rep)
			}
		}
		if opened := resumeAndCheck(t, reads, cfg, dir, want); !opened[superkmerFile(part)] {
			t.Errorf("partition %d merged from a scan that never completed", part)
		}
	}
}

// TestDistWorkerNeverSyncs: a dist worker's files are fenced by name and no
// manifest ever names them, so a worker process pays no Sync and no durable
// Create at all — its runs and its fenced subgraph are all published
// volatile. The coordinator's promotions are claimed a group at a time, and
// every Step 2 record in every manifest it saves names a canonical file a
// covering Sync flushed before that save began.
func TestDistWorkerNeverSyncs(t *testing.T) {
	reads := tinyReads(t)
	cfg, _ := spillDurabilityConfig(t)
	coord := storetest.NewRecorder(nil)
	ccfg := cfg
	ccfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		coord.PartitionStore = st
		return coord
	}
	ctx := context.Background()
	plan, err := PrepareDistBuild(ctx, reads, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	watch := storetest.NewJournalWatch(coord)
	plan.ObserveSaves(watch.Observe)
	var rec *storetest.Recorder
	wcfg := cfg
	wcfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		rec = storetest.NewRecorder(st)
		return rec
	}
	worker, err := NewDistWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range plan.Pending() {
		work, err := worker.Construct(ctx, i, FencedName(i, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.PromoteFenced(ctx, i, 7, work); err != nil {
			t.Fatal(err)
		}
	}
	if err := plan.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Volatile) < device.DefaultMergeFanIn {
		t.Fatalf("worker published %d files; the partitions must spill past one merge pass", len(rec.Volatile))
	}
	for name := range rec.Volatile {
		if !strings.HasSuffix(name, ".t7") {
			t.Errorf("worker file %q is not fenced", name)
		}
	}
	if len(rec.Synced) != 0 || len(rec.Durable) != 0 {
		t.Errorf("dist worker synced %v and published %v durably, want nothing of either", rec.Synced, rec.Durable)
	}

	if !plan.Done() {
		t.Fatal("the flushed promotions are not all claimed")
	}
	if len(watch.Unsynced) > 0 {
		t.Errorf("claims saved before their files were synced: %v", watch.Unsynced)
	}
	if groups := coord.SubgraphSyncs; groups < 1 || watch.Saves != groups || watch.Step2Saves != groups {
		t.Errorf("%d saves (%d claiming subgraphs) for %d covering syncs, want one save per group", watch.Saves, watch.Step2Saves, groups)
	}
	for i := 0; i < cfg.NumPartitions; i++ {
		if n := coord.Synced[subgraphFile(i)]; n != 1 {
			t.Errorf("%s synced %d times, want once", subgraphFile(i), n)
		}
	}
}

// TestSpillResumeAfterPowerLoss kills a spilled build between a claimed scan
// and its merge, then cuts the power: every file published volatile and not
// synced since is dropped or truncated. With an honest device the claimed
// runs survive and the resume merges them without rescanning; with a device
// that lost the flushes the claimed runs are damaged too, verification
// rejects them and the partition re-spills. Either way the graph is the
// uninterrupted build's.
func TestSpillResumeAfterPowerLoss(t *testing.T) {
	reads := tinyReads(t)
	want := uninterruptedGraph(t, reads)
	for _, tc := range []struct {
		name               string
		truncate, loseSync bool
	}{
		{"drop", false, false},
		{"truncate", true, false},
		{"drop/lost-flushes", false, true},
		{"truncate/lost-flushes", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, dir := spillDurabilityConfig(t)
			var pl *storetest.PowerLoss
			cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
				pl = storetest.NewPowerLoss(st)
				pl.LoseSyncs = tc.loseSync
				return pl
			}
			ctx, cancel := killAt("step2.spill.merge", 1)
			defer cancel(nil)
			if _, err := BuildContext(ctx, reads, cfg); !errors.Is(err, faultinject.ErrPointCanceled) {
				t.Fatalf("err = %v, want ErrPointCanceled", err)
			}
			man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(man.SpillDone) == 0 {
				t.Fatal("no scan was claimed before the kill")
			}
			claimed := map[string]bool{}
			for _, run := range man.SpillRuns {
				claimed[run.Name] = true
			}
			damaged, err := pl.Cut(tc.truncate)
			if err != nil {
				t.Fatal(err)
			}
			hitClaim := false
			for _, name := range damaged {
				hitClaim = hitClaim || claimed[name]
			}
			if hitClaim != tc.loseSync {
				t.Fatalf("power cut damaged a claimed run: %v, want %v (damaged %v)", hitClaim, tc.loseSync, damaged)
			}
			opened := resumeAndCheck(t, reads, cfg, dir, want)
			for _, p := range man.SpillDone {
				if got := opened[superkmerFile(p)]; got != tc.loseSync {
					t.Errorf("claimed partition %d rescanned: %v, want %v", p, got, tc.loseSync)
				}
			}
		})
	}
}

// TestSpillSyncDiskFull: delayed allocation can report a full disk at the
// covering Sync rather than at any write. The build fails typed, the
// partition's scan is not claimed, and a resume once space is back converges.
func TestSpillSyncDiskFull(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := spillDurabilityConfig(t)
	cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		fs := faultinject.WrapStore(st)
		fs.FailSyncsNTimes(spillRunFile(0, 0), -1, fmt.Errorf("%w: flushing", store.ErrDiskFull))
		return fs
	}
	if _, err := Build(reads, cfg); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("full disk at the covering sync: err = %v, want store.ErrDiskFull", err)
	}
	man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.IsSpillDone(0) || len(man.SpillRunsFor(0)) != 0 {
		t.Fatal("partition 0's scan was claimed although its runs never synced")
	}
	resumeAndCheck(t, reads, cfg, dir, uninterruptedGraph(t, reads))
}
