package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"parahash/internal/device"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/manifest"
	"parahash/internal/msp"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
	"parahash/internal/store"
)

// ErrResizeExhausted reports a partition whose hash table still overflows
// after the bounded number of doublings; a pathological partition must
// surface a typed error instead of resizing forever.
var ErrResizeExhausted = errors.New("core: hash table resize attempts exhausted")

// maxTableResizes bounds the Step 2 fallback resize loop. Property 1
// pre-sizing is normally within a factor of two, so 16 doublings (a 65536×
// under-estimate) only trips on genuinely pathological partitions.
const maxTableResizes = 16

// step2Work is one partition constructed this run: what the construction
// reported, the claim journalled for its published subgraph, and its encoded
// input size (Step 1's), which Step 2's schedule charges for reading it.
type step2Work struct {
	PartitionWork
	claim     manifest.Step2Partition
	fileBytes int64
}

// graphBytes is the published subgraph's size at the model's width.
func (w step2Work) graphBytes() int64 { return graph.ModelBytes(int(w.claim.Vertices)) }

// spillPlan is one partition's out-of-core routing decision, made before
// the pipeline starts so the admission gate can weigh the partition by its
// bounded run buffer instead of an over-budget table prediction.
type spillPlan struct {
	// budget bounds the in-memory run buffer pair.
	budget int64
	// auto marks a partition routed out-of-core because its prediction
	// exceeded the whole build's MemoryBudgetBytes with no per-partition
	// budget configured (the clamped run-alone fallback replaced).
	auto bool
	// mergeOnly, when non-nil, holds the verified journalled runs of a
	// resumed partition whose spill scan completed before the crash: the
	// worker merges them directly without re-reading superkmers.
	mergeOnly []manifest.SpillRun
	// mergeKmers is the partition's k-mer count from the Step 1 manifest
	// statistics, reported on the merge-only path (the scan that would have
	// counted them is skipped).
	mergeKmers int64
	// fence suffixes every run name: a -workers worker's lease token (".t7"),
	// as on its subgraph, so a zombie holding a revoked lease never writes
	// the current holder's runs. Empty in a single-process build.
	fence string
}

// step2Input carries one partition's superkmers plus its routing decision
// through the pipeline (workers receive no slot index, so the decision
// rides with the data). kmers is the decoder's count for sks, loaded is what
// sks live in (nil for a merge-only input, which has none).
type step2Input struct {
	part   int
	sks    []msp.Superkmer
	kmers  int64
	spill  *spillPlan
	loaded *loadedPartition
}

// loadedPartition is the memory one superkmer partition is loaded into: the
// records decoded from its file image. Step 2 loads partition after
// partition, each into the memory an earlier one is done with.
type loadedPartition = msp.DecodedPartition

// partitionImages recycles the buffers partition files are read into. An
// image is needed only while it is decoded — the records are unpacked out of
// it — so the few partitions Step 2 holds decoded share these instead of
// keeping one each.
var partitionImages = sync.Pool{New: func() any { return new([]byte) }}

// loadedPartitions recycles them. Ownership rule: whoever loaded a partition
// puts it back, and only once nothing can still be reading its superkmers —
// after the one construction that used them returned. Where a watchdog may
// abandon a construction mid-flight (Resilience.PartitionDeadline), the
// abandoned call keeps reading while the retry runs, nobody knows when it
// stops, and the partition is left to the collector instead.
var loadedPartitions = sync.Pool{New: func() any { return new(loadedPartition) }}

// loadPartition reads a superkmer partition's image from the store and
// decodes it whole, into p's memory where that is large enough. The decoder
// demands the integrity footer our own Step 1 always writes, so truncated or
// corrupted partition bytes fail with a typed, retryable error instead of
// silently mis-decoding; p.Bytes are the encoded bytes consumed either way.
func loadPartition(st store.PartitionStore, name string, p *loadedPartition) error {
	p.Bytes = 0
	img := partitionImages.Get().(*[]byte)
	defer partitionImages.Put(img)
	r, err := st.Open(name)
	if err != nil {
		return err
	}
	// Stores hand out snapshot readers that know their length; anything
	// else is read to its end.
	if sized, ok := r.(interface{ Len() int }); ok {
		n := sized.Len()
		if cap(*img) < n {
			*img = make([]byte, n+n/4)
		}
		*img = (*img)[:n]
		_, err = io.ReadFull(r, *img)
	} else {
		*img, err = io.ReadAll(r)
	}
	if err != nil {
		return fmt.Errorf("%w: reading %q: %v", msp.ErrCorrupt, name, err)
	}
	return p.Decode(*img)
}

// runStep2 executes the subgraph construction step: superkmer partitions
// flow through the pipeline, each hashed by an idle processor into a
// subgraph that the output stage publishes to the store. With a checkpoint,
// partitions whose Step 2 completion already verified are skipped entirely,
// and the freshly published subgraphs are made durable and claimed in the
// manifest a group at a time (step2Committer).
func runStep2(ctx context.Context, partStats []msp.PartitionStats, cfg Config, st store.PartitionStore, ck *checkpoint) ([]step2Work, StepStats, error) {
	np := len(partStats)
	procs := processors(cfg)
	// pending maps pipeline slots to partition indices: only partitions not
	// already durably completed are scheduled.
	pending := make([]int, 0, np)
	for i := 0; i < np; i++ {
		if ck == nil || !ck.skipStep2(i) {
			pending = append(pending, i)
		}
	}
	works := make([]step2Work, len(pending))

	// Route each pending partition before the pipeline starts.
	plans := make([]*spillPlan, len(pending))
	for slot, i := range pending {
		plans[slot] = cfg.spillRoute(i, partStats[i].Kmers)
		if plans[slot] == nil || ck == nil {
			continue
		}
		if runs, ok := ck.spillReady[i]; ok {
			plans[slot].mergeOnly = runs
			plans[slot].mergeKmers = partStats[i].Kmers
		}
	}

	// See loadedPartitions for when a loaded partition may be used again.
	recycleLoaded := cfg.Resilience.PartitionDeadline == 0
	workers := make([]pipeline.Worker[step2Input, device.Step2Output], len(procs))
	for i, p := range procs {
		workers[i] = func(ctx context.Context, in step2Input) (out device.Step2Output, err error) {
			if in.spill != nil {
				out, err = spillConstruct(ctx, in, cfg, st, ck)
			} else {
				out, err = step2Construct(ctx, p, in.sks, in.kmers, cfg)
			}
			// A failed construction is retried over the same input.
			if err == nil && recycleLoaded && in.loaded != nil {
				loadedPartitions.Put(in.loaded)
			}
			return out, err
		}
	}

	pol := cfg.resiliencePolicy()
	pol.Slots = step2Slots(cfg, procs)
	if cfg.MemoryBudgetBytes > 0 {
		gate, err := pipeline.NewGate(cfg.MemoryBudgetBytes)
		if err != nil {
			return nil, StepStats{}, err
		}
		pol.Admission = gate
		// A partition's admission weight is its Property-1 predicted hash
		// table footprint — the same λ/(4α)·N_kmer pre-sizing Step 2 itself
		// uses — so the gate bounds exactly the bytes the tables will claim.
		// A spilling partition is weighed by its bounded run buffer instead:
		// that is all the memory the sort-merge path holds at once.
		pol.AdmissionWeight = func(slot int) int64 {
			if slot == len(pending) {
				return 0 // the end of the input, not a partition
			}
			if plan := plans[slot]; plan != nil {
				return plan.budget
			}
			predicted, ok := cfg.predictedTableBytes(partStats[pending[slot]].Kmers)
			if !ok {
				// Sizing itself will fail in the worker with a proper error;
				// admit under the full budget so it gets there.
				return cfg.MemoryBudgetBytes
			}
			return predicted
		}
	}

	committer := startStep2Committer(ctx, cfg, st, ck)
	read := func(slot int) (step2Input, error) {
		if slot == len(pending) {
			return step2Input{}, io.EOF
		}
		in := step2Input{part: pending[slot], spill: plans[slot]}
		if in.spill != nil && in.spill.mergeOnly != nil {
			// Merge-only resume: the journalled runs carry everything the
			// merge needs, so the superkmer partition is not decoded at all.
			return in, nil
		}
		in.loaded = loadedPartitions.Get().(*loadedPartition)
		err := loadPartition(st, superkmerFile(in.part), in.loaded)
		// Accumulate (not assign): a retried read re-decodes the partition
		// and both passes cost real IO. The write closure fills the other
		// fields; the pipeline's stage ordering makes the shared struct safe.
		works[slot].DecodedBytes += in.loaded.Bytes
		if err != nil {
			loadedPartitions.Put(in.loaded) // no construction ever saw it
			return step2Input{}, err
		}
		in.sks, in.kmers = in.loaded.Superkmers, in.loaded.NumKmers(cfg.K)
		return in, nil
	}
	write := func(slot int, out device.Step2Output) error {
		i := pending[slot]
		w := &works[slot]
		w.PartitionWork = partitionWork(out, plans[slot], w.DecodedBytes)
		w.fileBytes = partStats[i].EncodedBytes
		// Published, not durable: the committer flushes it with its group.
		size, err := publishSubgraph(st.CreateVolatile, subgraphFile(i), out.Graph, cfg.OutputFilterMin)
		if err != nil {
			return err
		}
		if ck == nil && len(out.SpillFiles) > 0 {
			// Nothing will claim these runs, and this is the attempt being
			// published, not one the watchdog may have abandoned.
			_ = st.Remove(out.SpillFiles...)
		}
		w.claim = step2Record(i, size, int64(out.Graph.NumVertices()), int64(out.Graph.NumEdges()), out.Distinct)
		if err := committer.submit(w.claim); err != nil {
			return err // retried: the subgraph is published again
		}
		// Written: this was the last use of its vertices.
		graph.PutVertices(out.Graph.Vertices)
		return nil
	}

	report, err := pipeline.RunResilientTraced(ctx, read, workers, write, pol, stepRecorder(cfg, "step2", procs))
	// Drained on every path: when the step returns, every published subgraph
	// is claimed or will never be, and the manifest is written no more.
	if cerr := committer.drain(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, StepStats{}, err
	}

	stats, err := scheduleStep2(works, cfg, procs)
	if err != nil {
		return nil, StepStats{}, err
	}
	applyReport(&stats, report, procs)
	return works, stats, nil
}

// partitionWork is what a partition constructed as out, routed by plan
// (nil: in-core), reports, decoded the encoded bytes its reads consumed.
func partitionWork(out device.Step2Output, plan *spillPlan, decoded int64) PartitionWork {
	w := PartitionWork{Kmers: out.Kmers, Distinct: out.Distinct, TableBytes: out.TableBytes,
		Spill: out.Spill, Hash: out.Hash, DecodedBytes: decoded}
	if plan != nil {
		w.SpillBufferBytes, w.AutoRouted = plan.budget, plan.auto
	}
	return w
}

// step2Slots gives a multi-threaded CPU two partitions in flight, so its
// threads hash the next partition while the last one's tail chunks, extract
// and sort run on fewer of them than it has (device.CPU shares its Threads
// between the two). One core has nothing idle to fill, and a GPU, a
// single-threaded CPU and Step 1 stay at one.
func step2Slots(cfg Config, procs []device.Processor) []int {
	slots := make([]int, len(procs)) // 0: one at a time
	for i, p := range procs {
		if p.Kind() == device.KindCPU && cfg.CPUThreads > 1 && runtime.GOMAXPROCS(0) > 1 {
			slots[i] = 2
		}
	}
	return slots
}

// publishSubgraph applies the output filter to g in place, publishes it
// under name through create — the store's volatile or durable writer — and
// returns the file's size. Filtering twice drops nothing more, so a retried
// publish writes the same bytes.
func publishSubgraph(create func(string) (io.WriteCloser, error), name string, g *graph.Subgraph, filterMin int) (int64, error) {
	if filterMin > 1 {
		g.FilterByMultiplicity(filterMin)
	}
	sink, err := create(name)
	if err != nil {
		return 0, fmt.Errorf("core: creating subgraph %q: %w", name, err)
	}
	counted := &byteCount{w: sink}
	if err := g.Write(counted); err != nil {
		sink.Close()
		return 0, fmt.Errorf("core: writing subgraph %q: %w", name, err)
	}
	return counted.n, sink.Close()
}

// byteCount counts the bytes written to w through it.
type byteCount struct {
	w io.Writer
	n int64
}

func (c *byteCount) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// foldStep2Works folds the partitions constructed this run into the run
// stats — each one's claim and its work counters — and returns the largest
// single-partition residency (table or run buffer + encoded input + graph,
// the graph at the model's width) for the peak-memory estimate.
func foldStep2Works(st *Stats, works []step2Work) int64 {
	var peak int64
	for _, w := range works {
		st.foldStep2Record(w.claim)
		st.foldCounters(w.PartitionWork)
		peak = max(peak, w.TableBytes+w.fileBytes+w.graphBytes()+w.SpillBufferBytes)
	}
	return peak
}

// predictedTableBytes is the Property-1 predicted hash-table footprint for
// a partition holding the given k-mer count. ok is false when sizing itself
// fails (the in-core worker then surfaces the proper typed error).
func (c Config) predictedTableBytes(kmers int64) (predicted int64, ok bool) {
	slots, err := hashtable.SizeForKmersChecked(kmers, c.Lambda, c.Alpha)
	if err != nil {
		return 0, false
	}
	return hashtable.MemoryBytesFor(slots), true
}

// spillRoute is the one in-core-or-spill decision, a single-process build's
// and a -workers worker's: nil keeps partition part in-core, else the plan
// holds its run-buffer budget. A partition goes out-of-core when its
// Property-1 predicted table exceeds the per-partition budget or, with none
// configured, the whole build's memory budget. That second route is auto and
// logged: it used to run in-core anyway — alone, with its admission weight
// clamped to the budget; an honest scheduler but a dishonest memory bound.
func (c Config) spillRoute(part int, kmers int64) *spillPlan {
	predicted, ok := c.predictedTableBytes(kmers)
	if !ok {
		// Sizing itself will fail in-core with a proper error; leave the
		// partition on that path so it gets there.
		return nil
	}
	switch {
	case c.PartitionMemoryBudgetBytes > 0 && predicted > c.PartitionMemoryBudgetBytes:
		return &spillPlan{budget: c.PartitionMemoryBudgetBytes}
	case c.PartitionMemoryBudgetBytes == 0 && c.MemoryBudgetBytes > 0 && predicted > c.MemoryBudgetBytes:
		c.logf("core: partition %d predicted %d table bytes, over the %d-byte memory budget; auto-routing out-of-core",
			part, predicted, c.MemoryBudgetBytes)
		return &spillPlan{budget: c.MemoryBudgetBytes, auto: true}
	}
	return nil
}

// spillConstruct builds one oversized partition out-of-core: scan its
// superkmers into budget-bounded sorted runs spilled through the store, then
// k-way merge-dedup the runs into the final sorted subgraph. Runs are
// published without an fsync. With a checkpoint, a scan whose merge needs a
// reduction pass is made durable by one covering Sync and claimed by one
// manifest save, so a crash from then on resumes at the merge; a scan the
// merge reads once is not worth that, and a crash re-scans it. A merge-only
// input skips the scan and merges the claimed runs a crashed build left
// behind. Without a checkpoint (ck == nil: no checkpoint directory, or a
// -workers worker) nothing is claimed, and the caller removes the output's
// SpillFiles once the subgraph is published.
func spillConstruct(ctx context.Context, in step2Input, cfg Config, st store.PartitionStore, ck *checkpoint) (device.Step2Output, error) {
	ecfg := device.ExternalConfig{
		K:           cfg.K,
		BufferBytes: in.spill.budget,
		SortWorkers: max(cfg.CPUThreads, 1),
		Store:       st,
		RunName:     func(run int) string { return spillRunFile(in.part, run) + in.spill.fence },
	}
	var runNames []string
	var kmers, spilledBytes int64
	if in.spill.mergeOnly != nil {
		for _, rec := range in.spill.mergeOnly {
			runNames = append(runNames, rec.Name)
			spilledBytes += rec.Bytes
		}
		kmers = in.spill.mergeKmers
	} else {
		var scanned []manifest.SpillRun
		if ck != nil {
			// A retry after a failed merge owns the partition's spill
			// namespace again: drop the failed attempt's claim before its
			// files are overwritten in place (run names are deterministic).
			// Whatever it spills is swept once its subgraph is claimed.
			if err := ck.beginSpill(in.part); err != nil {
				return device.Step2Output{}, err
			}
			ecfg.OnRun = func(run int, name string, bytes int64, crc uint32, vertices int64) error {
				scanned = append(scanned, manifest.SpillRun{
					Partition: in.part, Run: run, Name: name,
					Bytes: bytes, CRC32: crc, Vertices: vertices,
				})
				// A kill here models power loss mid-scan: runs published but
				// neither flushed nor claimed, so whatever survives is an
				// orphan and the resume re-spills over it. The stall point
				// is the plan-scoped (in-process) analogue.
				faultinject.MaybeCrash("step2.spill")
				return faultinject.MaybeStall(ctx, "step2.spill")
			}
		}
		spill, err := device.SpillRuns(ctx, in.sks, ecfg)
		if err != nil {
			return device.Step2Output{}, fmt.Errorf("core: spilling partition %d: %w", in.part, err)
		}
		// Only a merge with a reduction pass is worth a claim: it reads the
		// runs more than once, and a claim lets a resume skip the re-scan.
		// A single-pass merge costs no more than that re-scan, so its runs
		// stay volatile and unclaimed, as they are without a checkpoint.
		if ck != nil && len(spill.RunNames) > device.DefaultMergeFanIn {
			// The claim may name only durable files, so the runs are flushed
			// first.
			if err := st.Sync(spill.RunNames...); err != nil {
				return device.Step2Output{}, fmt.Errorf("core: syncing partition %d's spill runs: %w", in.part, err)
			}
			if err := ck.journalSpillScan(in.part, scanned); err != nil {
				return device.Step2Output{}, err
			}
		}
		runNames = spill.RunNames
		kmers = spill.Kmers
		spilledBytes = spill.SpilledBytes
	}
	// A kill here models a crash between the scan and the merge: resume
	// verifies claimed runs and goes straight back to merging, and re-scans
	// a partition whose runs were not claimed.
	faultinject.MaybeCrash("step2.spill.merge")
	if err := faultinject.MaybeStall(ctx, "step2.spill.merge"); err != nil {
		return device.Step2Output{}, err
	}
	out, passes, err := device.MergeSpilled(ctx, runNames, ecfg)
	if err != nil {
		return device.Step2Output{}, fmt.Errorf("core: merging partition %d: %w", in.part, err)
	}
	out.Kmers = kmers
	out.Spill = device.SpillCounts{Runs: int64(len(runNames)), SpilledBytes: spilledBytes, MergePasses: passes}
	return out, nil
}

// step2Construct sizes the hash table for one partition and builds its
// subgraph on processor p, doubling the table when Property 1's pre-sizing
// under-estimated — but only maxTableResizes times, so a pathological
// partition surfaces ErrResizeExhausted instead of looping forever. kmers is
// the k-mer count of sks, which the partition decoder already knows.
func step2Construct(ctx context.Context, p device.Processor, sks []msp.Superkmer, kmers int64, cfg Config) (device.Step2Output, error) {
	slots, err := hashtable.SizeForKmersChecked(kmers, cfg.Lambda, cfg.Alpha)
	if err != nil {
		return device.Step2Output{}, fmt.Errorf("core: sizing hash table for %d kmers: %w", kmers, err)
	}
	// Failed attempts still performed real hash-table work before the table
	// overflowed; fold those counters into the eventual successful output so
	// the run stats stay monotonic and honest across resizes.
	var wasted HashStats
	for resizes := 0; ; resizes++ {
		out, err := p.Step2(ctx, sks, cfg.K, slots)
		if !errors.Is(err, hashtable.ErrTableFull) {
			out.Hash.Add(wasted)
			return out, err
		}
		wasted.Add(out.Hash)
		// Property 1 under-estimated this partition (possible for unusual
		// inputs, e.g. coverage below 1); fall back to the resize path the
		// pre-sizing normally avoids.
		if resizes >= maxTableResizes {
			return device.Step2Output{}, fmt.Errorf(
				"%w: %d kmers still overflow %d slots after %d doublings",
				ErrResizeExhausted, kmers, slots, resizes)
		}
		slots *= 2
	}
}

// step2Cost returns processor p's virtual seconds for one partition.
func step2Cost(cfg Config, p device.Processor, w step2Work) float64 {
	if p.Kind() == device.KindCPU {
		return cfg.Calibration.CPUStep2Seconds(w.Kmers, cpuThreadsOf(p), w.TableBytes)
	}
	transfer := w.fileBytes + w.graphBytes()
	return cfg.Calibration.GPUStep2Seconds(w.Kmers, transfer, w.TableBytes)
}

// scheduleStep2 computes the step's virtual-time schedule.
func scheduleStep2(works []step2Work, cfg Config, procs []device.Processor) (StepStats, error) {
	parts := make([]pipeline.Partition, len(works))
	solo := make([]float64, len(procs))
	for i, w := range works {
		costs := make([]float64, len(procs))
		for p, proc := range procs {
			costs[p] = step2Cost(cfg, proc, w)
			solo[p] += costs[p]
		}
		outputSeconds := cfg.Calibration.WriteSeconds(cfg.Medium, w.graphBytes())
		if cfg.ExcludeGraphOutput {
			outputSeconds = 0
		}
		parts[i] = pipeline.Partition{
			InputSeconds:   cfg.Calibration.ReadSeconds(cfg.Medium, w.fileBytes),
			OutputSeconds:  outputSeconds,
			ComputeSeconds: costs,
			WorkUnits:      w.Distinct,
		}
	}
	sched, err := pipeline.Simulate(parts, len(procs))
	if err != nil {
		return StepStats{}, err
	}
	if cfg.Trace != nil {
		obs.TraceSchedule(cfg.Trace, "step2", procNames(procs), sched)
	}
	return stepStatsFromSchedule(sched, procs, solo), nil
}
