package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"parahash/internal/device"
	"parahash/internal/diskstore"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/msp"
	"parahash/internal/store"
)

// This file is the core side of the distributed Step 2 path (internal/dist):
// the coordinator prepares a checkpointed build up to the end of Step 1,
// hands partition assignment to the dist coordinator, and folds fenced
// worker results back into the manifest through the same publish-volatile,
// sync-once, claim-in-groups discipline the single-process build uses.

// DistStats aggregates the distributed-build fault-tolerance counters the
// coordinator accumulates over a run — the dist object of
// parahash.metrics/v1, present only on -workers runs. A fault-free fleet
// counts only workers, spawns and lease grants.
type DistStats struct {
	// Workers is the configured fleet size; Spawned counts worker
	// processes actually started, replacements included.
	Workers int `json:"workers"`
	Spawned int `json:"spawned"`
	// LeaseGrants counts partition-range leases granted (initial
	// assignments plus reassignments).
	LeaseGrants int64 `json:"lease_grants"`
	// LeaseExpiries counts leases that passed their heartbeat deadline and
	// were revoked.
	LeaseExpiries int64 `json:"lease_expiries"`
	// Reassignments counts partitions handed to a different worker after
	// their original lease was revoked.
	Reassignments int64 `json:"reassignments"`
	// FencedWrites counts results rejected because they carried a stale
	// fencing token — the zombie writes that would have corrupted a
	// re-assigned partition without fencing.
	FencedWrites int64 `json:"fenced_writes"`
	// WorkerQuarantines counts workers removed from the fleet after
	// exhausting their failure budget.
	WorkerQuarantines int64 `json:"worker_quarantines"`
}

// DistPlan is a checkpointed build prepared for distributed Step 2: Step 1
// has run (or resumed) and every remaining partition is ready to be leased
// to worker processes. The plan owns the manifest: the dist coordinator
// mutates it only through the plan's methods, which take the lock the
// plan's group committer claims under, so a lease save and a claim never
// interleave.
type DistPlan struct {
	cfg       Config
	st        store.PartitionStore // the checkpoint store as the build sees it
	ck        *checkpoint
	partStats []msp.PartitionStats
	step1     StepStats
	// commits claims promoted subgraphs a group at a time. The first
	// promotion after a Flush starts it; only the coordinator's goroutine
	// promotes and flushes.
	commits *step2Committer
	// counters holds the work counters of every promoted result, for Finish
	// to fold as a single-process build folds its partitions'.
	counters []Step2Counters
}

// ErrFencedRefused marks a worker result PromoteFenced would not promote:
// the fenced file failed verification or could not be moved into place. The
// partition goes back to the pool. Any other promotion error is the plan's
// own journal failing, which ends the build.
var ErrFencedRefused = errors.New("core: fenced subgraph refused")

// PrepareDistBuild validates the configuration, opens the checkpoint
// (fresh or resumed) and runs Step 1 over the reads exactly as a
// single-process build would, returning the plan for distributed Step 2. A
// checkpoint directory is required: the durable store is the only channel
// worker processes share.
func PrepareDistBuild(ctx context.Context, reads []fastq.Read, cfg Config) (*DistPlan, error) {
	return prepareDistBuild(ctx, sliceSource(reads, cfg), cfg)
}

// PrepareDistBuildFromReader is PrepareDistBuild over a plain or gzipped
// FASTA/FASTQ stream, read DefaultStreamChunkBases at a time as
// BuildFromReader reads it: the coordinator never holds the read set. A
// checkpoint whose Step 1 fully resumes does not read the stream at all.
func PrepareDistBuildFromReader(ctx context.Context, r io.Reader, cfg Config) (*DistPlan, error) {
	return prepareDistBuild(ctx, readerSource(r, 0), cfg)
}

func prepareDistBuild(ctx context.Context, src chunkSource, cfg Config) (*DistPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("core: distributed build requires a checkpoint directory")
	}
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	s1, err := buildStep1(ctx, src, cfg, st, ck)
	if err != nil {
		return nil, canceledErr(ctx, fmt.Errorf("core: step 1 (MSP partitioning): %w", err))
	}
	// Any leases in a resumed manifest belong to a dead coordinator; this
	// process owns the whole partition space now. So do any journalled
	// spill runs: they were scanned by a dead single-process build, and
	// workers spill under their own fenced names instead of reading the
	// manifest, so nothing will ever merge them — drop the claims in the
	// same save, then remove the files.
	ck.mu.Lock()
	ck.man.ClearLeases()
	var staleRuns []string
	for _, rec := range ck.man.SpillRuns {
		staleRuns = append(staleRuns, rec.Name)
	}
	ck.man.SpillRuns, ck.man.SpillDone = nil, nil
	ck.spillReady = map[int][]manifest.SpillRun{}
	err = ck.save()
	ck.mu.Unlock()
	if err != nil {
		return nil, err
	}
	_ = ck.ds.Remove(staleRuns...) // best-effort; scrub sweeps leftovers
	p := &DistPlan{cfg: cfg, st: st, ck: ck, partStats: s1.parts, step1: s1.stats}
	// So are any fenced orphans: results the dead fleet published but never
	// reported. Nothing will ever promote them (their tokens are below the
	// preserved high-water), so sweep them before leasing the space out.
	if _, err := p.SweepFenced(); err != nil {
		return nil, err
	}
	return p, nil
}

// Partitions returns the build's partition count.
func (p *DistPlan) Partitions() int { return p.cfg.NumPartitions }

// Pending returns the partitions whose Step 2 is not yet durably journalled,
// in index order.
func (p *DistPlan) Pending() []int {
	var out []int
	for i := 0; i < p.cfg.NumPartitions; i++ {
		if !p.ck.skipStep2(i) {
			out = append(out, i)
		}
	}
	return out
}

// KmersOf returns a partition's k-mer count (the Step 2 work weight).
func (p *DistPlan) KmersOf(i int) int64 { return p.partStats[i].Kmers }

// Manifest exposes the manifest for inspection while no Run is in flight; a
// running coordinator changes it only through the methods below.
func (p *DistPlan) Manifest() *manifest.Manifest { return p.ck.man }

// Leases applies fn — minting a lease token, recording, renewing or
// dropping a lease — to the manifest in memory, under the lock the group
// committer saves under. The next SaveManifest or group claim persists it.
func (p *DistPlan) Leases(fn func(*manifest.Manifest)) {
	p.ck.mu.Lock()
	defer p.ck.mu.Unlock()
	fn(p.ck.man)
}

// SaveManifest atomically persists the manifest — lease records, token
// high-water and every claim so far.
func (p *DistPlan) SaveManifest() error {
	p.ck.mu.Lock()
	defer p.ck.mu.Unlock()
	return p.ck.save()
}

// ObserveSaves hands fn each manifest the plan is about to save, lease
// saves and group claims alike, under the lock the save holds. For tests:
// it lets them check what was durable when a claim went out.
func (p *DistPlan) ObserveSaves(fn func(*manifest.Manifest)) {
	p.ck.mu.Lock()
	defer p.ck.mu.Unlock()
	p.ck.onSave = fn
}

// FencedName returns the store name a worker holding the given fencing
// token must publish partition i's subgraph under. Workers never write the
// canonical name: only the coordinator promotes a verified fenced file, so
// a zombie worker's late write can at worst leave an orphan file that the
// final sweep removes.
func FencedName(i int, token int64) string {
	return fmt.Sprintf("%s.t%d", subgraphFile(i), token)
}

// PromoteFenced verifies a worker's fenced subgraph file, renames it to the
// canonical partition name and hands its Step 2 record to the plan's group
// committer; the claim lands once Flush returns. distinct is the
// worker-reported pre-filter vertex count and counters its work, which the
// run's stats count only once the result is promoted. The caller must have
// checked the token is current, so a fenced zombie's work is never counted.
// The bytes are held to the judgement a resume applies (checkSubgraphFile:
// the build's k, strict order, exactly the declared records), so a torn,
// mis-ordered or foreign worker file is refused with ErrFencedRefused and
// never enters the manifest to fail the finish.
//
// Nothing here is flushed: the worker published the file volatile, and the
// rename is volatile too. The committer's covering Sync of the canonical
// names flushes each file and its directory — the rename with it — before
// the one save that claims the group, so a claim still names only synced
// bytes, and what a crash takes back first is an unclaimed orphan that the
// resume rebuilds.
func (p *DistPlan) PromoteFenced(ctx context.Context, i int, token int64, distinct int64, counters Step2Counters) error {
	name := FencedName(i, token)
	vertices, edges, size, err := checkSubgraphFile(p.ck.ds, name, p.cfg.K)
	if err != nil {
		return fmt.Errorf("%w: %q: %w", ErrFencedRefused, name, err)
	}
	if err := p.ck.ds.RenameVolatile(name, subgraphFile(i)); err != nil {
		return fmt.Errorf("%w: promoting %q: %w", ErrFencedRefused, name, err)
	}
	if p.commits == nil {
		p.commits = startStep2Committer(ctx, p.cfg, p.st, p.ck)
	}
	if err := p.commits.submit(step2Record(i, size, vertices, edges, distinct)); err != nil {
		return err
	}
	p.counters = append(p.counters, counters)
	return nil
}

// Flush waits until every promotion so far is claimed and returns the first
// commit failure, if any. A later promotion starts a new group committer.
func (p *DistPlan) Flush() error {
	if p.commits == nil {
		return nil
	}
	err := p.commits.drain()
	p.commits = nil
	return err
}

// DiscardFenced removes a stale worker result (a write fenced off by a
// newer token). Missing files are fine: the zombie may never have published.
func (p *DistPlan) DiscardFenced(i int, token int64) error {
	return p.ck.ds.Remove(FencedName(i, token))
}

// SweepFenced removes every fenced file still in the store — the orphans of
// revoked leases whose workers published after losing their claim: fenced
// subgraphs, and the fenced spill runs of workers killed mid-merge on an
// out-of-core partition — with one directory flush per directory. Returns
// the swept names. Run after the build completes so the checkpoint directory
// holds exactly the canonical artifacts.
func (p *DistPlan) SweepFenced() ([]string, error) {
	names, err := p.ck.ds.List()
	if err != nil {
		return nil, err
	}
	var swept []string
	for _, name := range names {
		var idx, run int
		var token int64
		if n, _ := fmt.Sscanf(name, "subgraphs/%04d.t%d", &idx, &token); n == 2 {
			swept = append(swept, name)
		} else if n, _ := fmt.Sscanf(name, "spill/%04d/run-%04d.t%d", &idx, &run, &token); n == 3 {
			swept = append(swept, name)
		}
	}
	if err := p.ck.ds.Remove(swept...); err != nil {
		return nil, err
	}
	return swept, nil
}

// Done reports whether every partition's Step 2 completion is journalled.
func (p *DistPlan) Done() bool {
	p.ck.mu.Lock()
	defer p.ck.mu.Unlock()
	for i := 0; i < p.cfg.NumPartitions; i++ {
		if p.ck.man.Step2For(i) == nil {
			return false
		}
	}
	return true
}

// Finish assembles the run result once every partition is journalled
// (waiting out the claims still in flight), folding the promoted results'
// work counters and the coordinator's distributed-governance counters into
// the stats; the graph's size comes from the journalled records, and the
// graph itself is streamed from the promoted subgraph files by
// Result.WriteGraph, exactly as a single-process build's is.
func (p *DistPlan) Finish(dist DistStats) (*Result, error) {
	if err := p.Flush(); err != nil {
		return nil, err
	}
	if !p.Done() {
		return nil, fmt.Errorf("core: distributed build incomplete: %d of %d partitions journalled",
			len(p.ck.man.Step2), p.cfg.NumPartitions)
	}
	res := newResult(p.cfg, p.st)
	res.Stats.Step1 = p.step1
	res.Stats.Step2 = StepStats{Partitions: p.cfg.NumPartitions}
	res.Stats.TotalSeconds = p.step1.Seconds
	res.Stats.Superkmers = msp.SummarizeStats(p.partStats)
	res.Stats.TotalKmers = res.Stats.Superkmers.TotalKmers
	for _, rec := range p.ck.man.Step2 {
		res.Stats.foldStep2Record(rec)
	}
	for _, c := range p.counters {
		res.Stats.foldCounters(c)
	}
	res.Stats.DuplicateVertices = res.Stats.TotalKmers - res.Stats.DistinctVertices
	res.Stats.ResumedPartitions = p.ck.resumed
	res.Stats.RebuiltPartitions = p.ck.rebuilt()
	res.Stats.Dist = &dist
	if err := res.finish(p.cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// DistOutput is a worker's report for one constructed partition: the fenced
// store name it published, the counts the coordinator journals after
// promotion, and the work counters it folds then.
type DistOutput struct {
	Name     string
	Bytes    int64
	Vertices int64
	Edges    int64
	Distinct int64
	Kmers    int64
	Counters Step2Counters
}

// DistWorker is the worker side of distributed Step 2 for the life of one
// worker process: the shared checkpoint store and one processor set, so
// consecutive partitions recycle the processor's hash table and scratch the
// way a single-process build's do.
type DistWorker struct {
	cfg  Config
	st   store.PartitionStore
	proc device.Processor
}

// NewDistWorker validates the configuration and opens the shared checkpoint
// store.
func NewDistWorker(cfg Config) (*DistWorker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("core: distributed worker requires a checkpoint directory")
	}
	ds, err := diskstore.Open(filepath.Join(cfg.Checkpoint.Dir, "data"))
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint store: %w", err)
	}
	procs := processors(cfg)
	if len(procs) == 0 {
		return nil, fmt.Errorf("core: no processors configured")
	}
	return &DistWorker{cfg: cfg, st: wrapBuildStore(cfg, ds), proc: procs[0]}, nil
}

// Construct decodes one superkmer partition from the shared checkpoint
// store, constructs its subgraph, applies the output filter, and publishes
// the result under the fenced name outName (never the canonical one —
// promotion is the coordinator's job). The publish is atomic and volatile:
// a worker killed at any point leaves either nothing or the complete fenced
// file, and the worker never flushes it — the coordinator's covering Sync
// does, after promotion, for the files it is about to claim. A spilled
// partition's runs carry outName's token and are never claimed: they go
// once the subgraph is published, and a worker killed first leaves fenced
// orphans that SweepFenced removes.
func (w *DistWorker) Construct(ctx context.Context, index int, outName string) (DistOutput, error) {
	cfg, st := w.cfg, w.st
	// The call's own from load to return, so it goes back on every path.
	part := loadedPartitions.Get().(*loadedPartition)
	defer loadedPartitions.Put(part)
	if err := loadPartition(st, superkmerFile(index), part); err != nil {
		return DistOutput{}, fmt.Errorf("core: loading partition %d: %w", index, err)
	}
	in := step2Input{part: index, sks: part.Superkmers, kmers: part.NumKmers(cfg.K)}
	in.spill = cfg.spillRoute(index, in.kmers)
	var out device.Step2Output
	var err error
	if in.spill != nil {
		in.spill.fence = strings.TrimPrefix(outName, subgraphFile(index))
		out, err = spillConstruct(ctx, in, cfg, st, nil)
	} else {
		out, err = step2Construct(ctx, w.proc, in.sks, in.kmers, cfg)
	}
	if err != nil {
		return DistOutput{}, fmt.Errorf("core: constructing partition %d: %w", index, err)
	}
	size, err := publishSubgraph(st.CreateVolatile, outName, out.Graph, cfg.OutputFilterMin)
	if err != nil {
		return DistOutput{}, err
	}
	if len(out.SpillFiles) > 0 {
		_ = st.Remove(out.SpillFiles...)
	}
	res := DistOutput{
		Name:     outName,
		Bytes:    size,
		Vertices: int64(out.Graph.NumVertices()),
		Edges:    int64(out.Graph.NumEdges()),
		Distinct: out.Distinct,
		Kmers:    out.Kmers,
		Counters: step2Counters(out, in.spill, part.Bytes),
	}
	graph.PutVertices(out.Graph.Vertices)
	return res, nil
}
