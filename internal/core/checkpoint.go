package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"sync"

	"parahash/internal/diskstore"
	"parahash/internal/graph"
	"parahash/internal/iosim"
	"parahash/internal/manifest"
	"parahash/internal/msp"
	"parahash/internal/store"
)

// ErrManifestMismatch reports a resume attempt against a checkpoint built
// with a different configuration (K, P, partition count, output filter or
// input). Resuming would silently mix partitions from two different
// constructions, so the build fails fast instead.
var ErrManifestMismatch = manifest.ErrMismatch

// checkpoint carries a build's durable-store state: the manifest journal and
// the resume assessment — which partitions can be skipped, which claimed
// artifacts failed verification and must be rebuilt.
type checkpoint struct {
	ds   *diskstore.Store
	man  *manifest.Manifest
	path string

	// mu serialises manifest mutation and Save. Step 2 completions are
	// journalled by the step's one committer goroutine, but completed spill
	// scans are claimed from concurrent compute workers.
	mu sync.Mutex
	// spilled holds the partitions this build spilled runs for, claimed or
	// not, whose Step 2 claims are still to come; superseded lists those a
	// Step 2 claim covered and whose run files are still to be removed once
	// that claim is saved.
	spilled    map[int]bool
	superseded []int
	// closed is set when the build returns. An attempt the watchdog
	// abandoned, or one still unwinding from a cancellation, outlives the
	// build that started it; once the caller has the result, the manifest
	// may belong to a Scrub or a resume, and a late save would interleave
	// with theirs in the same temp file.
	closed bool
	// onSave, when set, sees the manifest each save is about to persist;
	// tests use it to check what was durable before a claim went out.
	onSave func(*manifest.Manifest)

	// step1Valid marks the manifest's Step 1 roster trustworthy: every
	// partition file either verified or is listed in step1Rebuild.
	step1Valid bool
	// step1Rebuild lists partitions whose Step 1 file failed verification
	// (missing, wrong size, or CRC mismatch) and must be rewritten.
	step1Rebuild map[int]bool
	// step2Skip holds the verified Step 2 completions; those partitions are
	// not re-executed.
	step2Skip map[int]manifest.Step2Partition
	// spillReady maps partitions whose spill scan was claimed before the
	// crash (spill-done journalled, every run file verified) to their run
	// records in merge order. A resume that still routes the partition
	// out-of-core merges these runs directly instead of re-spilling.
	spillReady map[int][]manifest.SpillRun

	// resumed counts partitions skipped because their Step 2 artifact
	// verified; rebuiltSet collects partitions whose manifest claim failed
	// verification and had to be re-executed.
	resumed    int
	rebuiltSet map[int]bool
}

// errCheckpointClosed is what a straggling attempt gets for journalling
// after its build returned.
var errCheckpointClosed = errors.New("core: checkpoint closed: the build has returned")

// save persists the manifest; ck.mu must be held. It refuses once the
// checkpoint is closed.
func (ck *checkpoint) save() error {
	if ck.closed {
		return errCheckpointClosed
	}
	if ck.onSave != nil {
		ck.onSave(ck.man)
	}
	return ck.man.Save(ck.path)
}

// close ends the checkpoint's journalling. It waits out a save in flight,
// so when it returns this build writes the manifest no more. Safe on a nil
// checkpoint.
func (ck *checkpoint) close() {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	ck.closed = true
	ck.mu.Unlock()
}

// wrapBuildStore applies the config's fault-injection store wrapper, if
// any, to the store the build's pipeline reads and writes through. The
// checkpoint keeps its direct handle on the raw disk store: resume
// verification and Scrub judge the durable bytes, not the fault layer.
func wrapBuildStore(cfg Config, st store.PartitionStore) store.PartitionStore {
	if cfg.StoreWrap != nil {
		return cfg.StoreWrap(st)
	}
	return st
}

// openCheckpoint resolves the configured store. Without a checkpoint
// directory it returns the in-memory simulated store and a nil checkpoint —
// the historical behaviour. With one it opens the durable disk store,
// loads (or initialises) the manifest, and on resume assesses every claim.
func openCheckpoint(cfg Config) (store.PartitionStore, *checkpoint, error) {
	if cfg.Checkpoint.Dir == "" {
		return wrapBuildStore(cfg, iosim.NewStore()), nil, nil
	}
	ds, err := diskstore.Open(filepath.Join(cfg.Checkpoint.Dir, "data"))
	if err != nil {
		return nil, nil, fmt.Errorf("core: opening checkpoint store: %w", err)
	}
	ck := &checkpoint{
		ds:           ds,
		path:         filepath.Join(cfg.Checkpoint.Dir, "manifest.json"),
		step1Rebuild: make(map[int]bool),
		step2Skip:    make(map[int]manifest.Step2Partition),
		spillReady:   make(map[int][]manifest.SpillRun),
		spilled:      make(map[int]bool),
		rebuiltSet:   make(map[int]bool),
	}
	fp := cfg.fingerprint()
	if cfg.Checkpoint.Resume {
		m, err := manifest.Load(ck.path)
		switch {
		case err == nil:
			if err := m.Validate(fp, cfg.NumPartitions); err != nil {
				return nil, nil, err
			}
			ck.man = m
			ck.assess(cfg)
			return wrapBuildStore(cfg, ds), ck, nil
		case os.IsNotExist(err):
			// No manifest yet — nothing durable to trust; fall through to a
			// fresh start in the same directory.
		default:
			return nil, nil, fmt.Errorf("core: loading checkpoint manifest: %w", err)
		}
	}
	// Fresh build: drop any stale manifest before clearing the data it
	// refers to, so a crash between the two never leaves claims without
	// backing files.
	if err := os.Remove(ck.path); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("core: clearing checkpoint manifest: %w", err)
	}
	if err := ds.Reset(); err != nil {
		return nil, nil, fmt.Errorf("core: clearing checkpoint store: %w", err)
	}
	ck.man = manifest.New(fp, cfg.NumPartitions)
	if err := ck.man.Save(ck.path); err != nil {
		return nil, nil, err
	}
	return wrapBuildStore(cfg, ds), ck, nil
}

// assess verifies every manifest claim against the durable store and fills
// the resume plan. It never fails: an unverifiable claim just downgrades to
// a rebuild of that partition.
func (ck *checkpoint) assess(cfg Config) {
	m := ck.man
	if !m.Step1Done {
		// A crash before Step 1 completion leaves only unpublished *.tmp
		// files; nothing claimed, nothing trusted — full rerun.
		m.Step1, m.Step2, m.Step1Done = nil, nil, false
		m.SpillRuns, m.SpillDone = nil, nil
		return
	}
	ck.step1Valid = true
	var claimed []int
	for i := 0; i < m.Partitions; i++ {
		if rec := m.Step2For(i); rec != nil {
			if verifySubgraphFile(ck.ds, cfg.K, rec) {
				ck.step2Skip[i] = *rec
				ck.resumed++
				claimed = append(claimed, i)
				continue
			}
			m.DropStep2(i)
			ck.rebuiltSet[i] = true
		}
		// Spill claims are trusted for a merge-only resume only when the run
		// scan completed before the crash and every claimed run file
		// verifies (size, CRC footer, journalled checksum, sort order).
		// Anything less — a missing or damaged run, or the run claims
		// without a done mark that older builds journalled mid-scan — drops
		// the partition's whole spill state; it re-spills from its Step 1
		// file, overwriting the same deterministic run names.
		if runs := m.SpillRunsFor(i); len(runs) > 0 || m.IsSpillDone(i) {
			if m.IsSpillDone(i) && verifySpillRuns(ck.ds, cfg.K, runs) {
				ck.spillReady[i] = runs
			} else {
				m.DropSpill(i)
			}
		}
		// The partition will run Step 2, so its Step 1 file must be intact.
		if !ck.verifyStep1(m.Step1For(i)) {
			ck.step1Rebuild[i] = true
			ck.rebuiltSet[i] = true
		}
	}
	// A kill between a commit group's save and its sweep leaves the claimed
	// partitions' spill files behind, and this run skips those partitions.
	if len(claimed) > 0 {
		sweepSpill(ck.ds, claimed)
	}
}

// verifyStep1 checks a claimed partition file against the durable store.
func (ck *checkpoint) verifyStep1(rec *manifest.Step1Partition) bool {
	return verifyStep1File(ck.ds, rec)
}

// verifyStep1File checks a claimed partition file: present, the recorded
// size, and a full decode under RequireFooter whose record CRC matches the
// manifest's independently recorded checksum. Resume assessment and the
// Scrub repair pass share this exact judgement, so a claim Scrub verifies
// clean is by construction one a resume will trust.
func verifyStep1File(ds store.PartitionStore, rec *manifest.Step1Partition) bool {
	if rec == nil {
		return false
	}
	if sz, err := ds.Size(rec.Name); err != nil || sz != rec.Bytes {
		return false
	}
	r, err := ds.Open(rec.Name)
	if err != nil {
		return false
	}
	dec := msp.NewDecoder(r)
	dec.RequireFooter = true
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			return false
		}
	}
	return dec.Sum32() == rec.CRC32
}

// verifySubgraphFile checks a claimed subgraph file by checkSubgraphFile's
// judgement, and that it is the file claimed: the recorded size and vertex
// count. Resume assessment and Scrub share it, so a claim Scrub verifies
// clean is by construction one a resume will trust.
func verifySubgraphFile(ds store.PartitionStore, k int, rec *manifest.Step2Partition) bool {
	if rec == nil {
		return false
	}
	if sz, err := ds.Size(rec.Name); err != nil || sz != rec.Bytes {
		return false
	}
	vertices, _, _, err := checkSubgraphFile(ds, rec.Name, k)
	return err == nil && vertices == rec.Vertices
}

// checkSubgraphFile is the one judgement a subgraph file must pass to be
// trusted — by resume, by Scrub and by PromoteFenced: present, a header of
// k (0, which Scrub passes knowing no k, accepts the header's), strictly
// ascending, and exactly the records its header declares. It is the finish's
// own check on the file alone: MergeFiles over one source. It returns the
// file's vertex and edge counts and its size.
func checkSubgraphFile(ds store.PartitionStore, name string, k int) (vertices, edges, size int64, err error) {
	r, err := ds.OpenStream(name)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.Close()
	var head [6]byte
	if _, err := r.ReadAt(head[:], 0); err == nil && k == 0 {
		k = int(head[5]) // the PHDG header's k byte, after magic and version
	}
	vertices, edges, err = graph.MergeFiles(k, []graph.Source{r}, io.Discard)
	return vertices, edges, r.Size(), err
}

// verifySpillRuns checks every journalled run of a partition: present, the
// recorded size, a clean streaming verification (structure, sort order,
// CRC footer) and a checksum matching the manifest's independent record.
func verifySpillRuns(ds store.PartitionStore, k int, runs []manifest.SpillRun) bool {
	for _, rec := range runs {
		if !verifySpillRunFile(ds, k, rec) {
			return false
		}
	}
	return true
}

// verifySpillRunFile applies the spill-run judgement shared by resume
// assessment and Scrub.
func verifySpillRunFile(ds store.PartitionStore, k int, rec manifest.SpillRun) bool {
	if sz, err := ds.Size(rec.Name); err != nil || sz != rec.Bytes {
		return false
	}
	r, err := ds.Open(rec.Name)
	if err != nil {
		return false
	}
	n, crc, err := graph.VerifyRun(r, k)
	return err == nil && n == rec.Vertices && crc == rec.CRC32
}

// skipStep2 reports whether a partition's Step 2 is already durably done.
func (ck *checkpoint) skipStep2(i int) bool {
	_, ok := ck.step2Skip[i]
	return ok
}

// step1Complete reports whether every Step 1 partition file is verified —
// the whole MSP partitioning step can be skipped.
func (ck *checkpoint) step1Complete() bool {
	return ck.step1Valid && len(ck.step1Rebuild) == 0
}

// partitionStats reconstructs the per-partition Step 1 statistics from the
// manifest, so a fully resumed Step 1 schedules Step 2 without rescanning
// the input.
func (ck *checkpoint) partitionStats() []msp.PartitionStats {
	out := make([]msp.PartitionStats, ck.man.Partitions)
	for _, rec := range ck.man.Step1 {
		out[rec.Index] = msp.PartitionStats{
			Superkmers:   rec.Superkmers,
			Kmers:        rec.Kmers,
			Bases:        rec.Bases,
			EncodedBytes: rec.EncodedBytes,
			PlainBytes:   rec.PlainBytes,
		}
	}
	return out
}

// recordStep1 journals Step 1 completion: every partition's published file
// footprint plus its statistics, then Step1Done. Called only after the files
// this run wrote have been Sync'd, so each claim is backed by bytes on disk.
func (ck *checkpoint) recordStep1(stats []msp.PartitionStats, infos []msp.FileInfo) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for i := range stats {
		ck.man.SetStep1(manifest.Step1Partition{
			Index:        i,
			Name:         superkmerFile(i),
			Bytes:        infos[i].Bytes,
			CRC32:        infos[i].CRC32,
			Superkmers:   stats[i].Superkmers,
			Kmers:        stats[i].Kmers,
			Bases:        stats[i].Bases,
			EncodedBytes: stats[i].EncodedBytes,
			PlainBytes:   stats[i].PlainBytes,
		})
	}
	ck.man.Step1Done = true
	return ck.save()
}

// step2Record is partition i's Step 2 claim. size is the subgraph file's,
// vertices and edges count the subgraph as written (after any output
// filtering); distinct is the constructed pre-filter vertex count, preserved
// so resumed runs keep exact graph-size accounting.
func step2Record(i int, size, vertices, edges, distinct int64) manifest.Step2Partition {
	return manifest.Step2Partition{
		Index:    i,
		Name:     subgraphFile(i),
		Bytes:    size,
		Vertices: vertices,
		Edges:    edges,
		Distinct: distinct,
	}
}

// markStep2 journals a group of Step 2 completions in one save; the caller
// has made the subgraph files they name durable. Any spill claims the
// partitions accumulated are dropped in the same atomic save — a subgraph
// supersedes its runs — and the run files of every partition that spilled,
// claimed or not, removed afterwards (a crash in between leaves orphans,
// swept by the next resume's assess or by Scrub). Safe to repeat after a
// failed save.
func (ck *checkpoint) markStep2(group ...manifest.Step2Partition) error {
	ck.mu.Lock()
	for _, rec := range group {
		if ck.spilled[rec.Index] || len(ck.man.SpillRunsFor(rec.Index)) > 0 {
			ck.superseded = append(ck.superseded, rec.Index)
			delete(ck.spilled, rec.Index)
		}
		ck.man.DropSpill(rec.Index)
		ck.man.SetStep2(rec)
	}
	err := ck.save()
	sweep := ck.superseded
	if err == nil {
		ck.superseded = nil
	}
	ck.mu.Unlock()
	if err == nil && len(sweep) > 0 {
		sweepSpill(ck.ds, sweep)
	}
	return err
}

// sweepSpill best-effort removes everything under the partitions' spill
// directories — journalled runs and the merge intermediates that continue
// their ordinals unjournalled — with one listing of the store and one
// removal, which flushes each directory once. Called only once the
// partitions' subgraphs are claimed and the runs prove nothing.
func sweepSpill(st store.PartitionStore, parts []int) {
	names, err := st.List()
	if err != nil {
		return
	}
	dirs := make(map[string]bool, len(parts))
	for _, part := range parts {
		dirs[path.Dir(spillRunFile(part, 0))] = true
	}
	var runs []string
	for _, name := range names {
		if dirs[path.Dir(name)] {
			runs = append(runs, name)
		}
	}
	_ = st.Remove(runs...)
}

// journalSpillScan claims a partition's completed run scan — every run it
// spilled plus the spill-done mark — in one save, so a crash from here on
// resumes at the merge. The caller has Sync'd the files the records name,
// and claims only a scan whose merge needs a reduction pass. Runs are not
// claimed one by one: resume uses a partition's runs only if its scan
// completed.
func (ck *checkpoint) journalSpillScan(i int, runs []manifest.SpillRun) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for _, rec := range runs {
		ck.man.AddSpillRun(rec)
	}
	ck.man.SetSpillDone(i)
	return ck.save()
}

// beginSpill notes that partition i spills, so that its Step 2 claim sweeps
// its runs, and drops its claimed scan before the fresh spill attempt — a
// retry after a failed merge, the only way an attempt finds a claim already
// there. Files are left in place: the retry overwrites the same
// deterministic names, and anything beyond its run count is swept with them.
func (ck *checkpoint) beginSpill(i int) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.spilled[i] = true
	if !ck.man.IsSpillDone(i) {
		return nil
	}
	ck.man.DropSpill(i)
	return ck.save()
}

// rebuilt returns how many claimed partitions failed verification.
func (ck *checkpoint) rebuilt() int { return len(ck.rebuiltSet) }
