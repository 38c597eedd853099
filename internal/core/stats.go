package core

import (
	"fmt"
	"io"

	"parahash/internal/device"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/manifest"
	"parahash/internal/msp"
	"parahash/internal/pipeline"
	"parahash/internal/store"
)

// StepStats records one step's virtual-time performance and workload
// distribution — the quantities the paper's evaluation reports per step.
type StepStats struct {
	// Seconds is the pipelined elapsed time (virtual).
	Seconds float64
	// NonPipelinedSeconds is the sequential-stage sum (Fig. 12 baseline).
	NonPipelinedSeconds float64
	// InputSeconds / OutputSeconds are total stage-1/stage-3 times.
	InputSeconds, OutputSeconds float64
	// ProcessorNames aligns with the per-processor slices below.
	ProcessorNames []string
	// ProcessorBusy is each processor's total compute seconds.
	ProcessorBusy []float64
	// ProcessorUnits is each processor's consumed work units (reads in
	// Step 1, k-mers in Step 2).
	ProcessorUnits []int64
	// ProcessorParts is the number of partitions each processor consumed.
	ProcessorParts []int
	// SoloSeconds is each processor's estimated time to run the whole step
	// alone (drives the ideal shares of Fig. 11).
	SoloSeconds []float64
	// Partitions is the step's partition count.
	Partitions int

	// MeasuredProcessorParts counts the partitions each processor actually
	// produced in the live run (from the resilient report's assignment);
	// never-produced partitions are attributed to no one. It can differ
	// from ProcessorParts, which comes from the virtual-time schedule.
	MeasuredProcessorParts []int

	// Performance-model validation (§IV).

	// PredictedSeconds evaluates Eq. 1 on the measured stage totals:
	// max{T_CPU, T_GPU, T_I/O} + (T_input+T_output)/n.
	PredictedSeconds float64
	// PredictedCoprocessingSeconds evaluates Eq. 2's ideal co-processing
	// time from the per-processor solo times (Case 1: IO negligible).
	PredictedCoprocessingSeconds float64

	// Resilience counters, all zero on a fault-free run.

	// Retries counts retried partition attempts (read, compute and write
	// stages combined).
	Retries int
	// Requeues counts partitions re-queued from a quarantined processor.
	Requeues int
	// Quarantined lists processors quarantined during the step, in
	// quarantine order.
	Quarantined []string
	// BackoffSeconds is the virtual retry backoff charged into Seconds.
	BackoffSeconds float64

	// Governance counters (cancellation, watchdog, memory-budget
	// admission), all zero on an ungoverned run.

	// WatchdogKills counts partition attempts abandoned by the
	// per-attempt watchdog (Resilience.PartitionDeadline).
	WatchdogKills int
	// CanceledAttempts counts stage attempts cut short by cancellation.
	CanceledAttempts int
	// Admissions counts partitions admitted through the memory-budget
	// gate (zero without MemoryBudgetBytes).
	Admissions int64
	// AdmissionWaits counts admissions that had to queue for budget.
	AdmissionWaits int64
	// AdmissionWaitSeconds is the total wall-clock time spent queued.
	AdmissionWaitSeconds float64
	// PeakAdmittedBytes is the largest concurrently admitted predicted
	// footprint; by construction ≤ MemoryBudgetBytes.
	PeakAdmittedBytes int64
	// AdmissionBalanceBytes is the weight still admitted when the step's
	// pipeline drained. Always zero in a correct build — even a faulted or
	// canceled one — because every admission is released on the partition's
	// way out; the chaos invariant checker asserts it.
	AdmissionBalanceBytes int64
}

// Degraded reports whether the step hit any fault handled by the resilient
// runtime.
func (s StepStats) Degraded() bool {
	return s.Retries > 0 || s.Requeues > 0 || len(s.Quarantined) > 0
}

// WorkloadShares returns each processor's measured fraction of work units.
func (s StepStats) WorkloadShares() []float64 {
	var total int64
	for _, u := range s.ProcessorUnits {
		total += u
	}
	shares := make([]float64, len(s.ProcessorUnits))
	if total == 0 {
		return shares
	}
	for i, u := range s.ProcessorUnits {
		shares[i] = float64(u) / float64(total)
	}
	return shares
}

// IdealShares returns the speed-proportional target distribution.
func (s StepStats) IdealShares() []float64 {
	return pipeline.IdealShares(s.SoloSeconds)
}

// ModelErrorPct is the Eq. 1 prediction error: (measured−predicted)/
// predicted · 100, or 0 when there is no prediction.
func (s StepStats) ModelErrorPct() float64 {
	if s.PredictedSeconds == 0 {
		return 0
	}
	return (s.Seconds - s.PredictedSeconds) / s.PredictedSeconds * 100
}

// HashStats is the Step 2 state-transfer hash table counters (§III-C3): one
// partition's as its kernel returned them, a run's summed with Add.
type HashStats = hashtable.Snapshot

// SpillStats is a run's out-of-core Step 2 record, the spill object of
// parahash.metrics/v1: the partitions whose Property-1 table prediction
// exceeded their memory budget and were constructed by sort-merge spill
// instead of a hash table, their summed work, and the budget they ran under.
type SpillStats struct {
	// Partitions counts partitions constructed out-of-core; AutoRouted is
	// the subset routed automatically because their prediction exceeded the
	// whole build's MemoryBudgetBytes with no per-partition budget set.
	Partitions int `json:"spilled_partitions"`
	AutoRouted int `json:"auto_routed"`
	device.SpillCounts
	// PartitionMemoryBudgetBytes echoes Config.PartitionMemoryBudgetBytes
	// (0 = auto-routing against the build budget only).
	PartitionMemoryBudgetBytes int64 `json:"partition_memory_budget_bytes"`
}

// Step2Counters is what one partition's Step 2 adds to a run's Hash, Spill
// and DecodedBytes — a single-process build's partition and a -workers
// worker's alike, folded the same way (Stats.foldCounters).
type Step2Counters struct {
	// Hash is the table's work, failed resize attempts included; zero for
	// a partition built out-of-core.
	Hash HashStats `json:"hash"`
	// DecodedBytes counts the encoded partition bytes the read stage
	// consumed (retries included).
	DecodedBytes int64 `json:"decoded_bytes"`
	// Spilled marks a partition constructed out-of-core, and AutoRouted one
	// routed there by the build's memory budget; Spill is that path's work.
	Spilled    bool               `json:"spilled,omitempty"`
	AutoRouted bool               `json:"auto_routed,omitempty"`
	Spill      device.SpillCounts `json:"spill"`
}

// Stats aggregates a full ParaHash run.
type Stats struct {
	// Step1 and Step2 are the per-step performance records.
	Step1, Step2 StepStats
	// TotalSeconds is the end-to-end virtual elapsed time (Step1 + Step2).
	TotalSeconds float64
	// PeakMemoryBytes estimates the host peak residency: the largest
	// simultaneous partition + hash table + subgraph footprint.
	PeakMemoryBytes int64
	// DistinctVertices is the constructed graph size (Table I).
	DistinctVertices int64
	// DuplicateVertices is total k-mer instances minus distinct (Table I).
	DuplicateVertices int64
	// GraphVertices and GraphEdges are the vertices and distinct directed
	// edges of the graph as published — after OutputFilterMin, so
	// GraphVertices is DistinctVertices less what the filter dropped — summed
	// from the per-partition counts each subgraph was journalled with. They
	// are what Result.WriteGraph writes.
	GraphVertices, GraphEdges int64
	// TotalKmers is N(L-K+1) summed over reads.
	TotalKmers int64
	// Superkmers summarises the Step 1 partition statistics.
	Superkmers msp.StatsSummary
	// Hash aggregates the hash table work counters across Step 2.
	Hash HashStats
	// DecodedBytes is the total encoded partition bytes Step 2 decoded
	// (retried reads included), the mirror of Superkmers.TotalEncoded.
	DecodedBytes int64
	// Spill aggregates the out-of-core Step 2 path's work, all zero but the
	// budget when every partition fit in-core.
	Spill SpillStats

	// Checkpoint/resume accounting, both zero without a resumed checkpoint.

	// ResumedPartitions counts partitions skipped because a prior run's
	// durable Step 2 output verified against the manifest.
	ResumedPartitions int
	// RebuiltPartitions counts partitions whose manifest claim failed
	// verification (missing, truncated or corrupt artifact) and were
	// re-executed from intact inputs.
	RebuiltPartitions int

	// Dist carries the distributed-build fault-tolerance counters; nil for
	// single-process builds.
	Dist *DistStats
}

// foldCounters adds one partition's Step 2 work counters.
func (st *Stats) foldCounters(c Step2Counters) {
	st.Hash.Add(c.Hash)
	st.DecodedBytes += c.DecodedBytes
	if c.Spilled {
		st.Spill.Partitions++
		if c.AutoRouted {
			st.Spill.AutoRouted++
		}
		st.Spill.SpillCounts.Add(c.Spill)
	}
}

// foldStep2Record adds the graph-size counts a partition was journalled with:
// how a partition this process did not construct — resumed, or built by a
// -workers process — enters the run's totals.
func (st *Stats) foldStep2Record(rec manifest.Step2Partition) {
	st.DistinctVertices += rec.Distinct
	st.GraphVertices += rec.Vertices
	st.GraphEdges += rec.Edges
}

// TotalRetries sums both steps' retried partition attempts.
func (s Stats) TotalRetries() int { return s.Step1.Retries + s.Step2.Retries }

// TotalRequeues sums both steps' quarantine re-queues.
func (s Stats) TotalRequeues() int { return s.Step1.Requeues + s.Step2.Requeues }

// QuarantinedProcessors returns the processors quarantined in either step,
// deduplicated, in first-quarantine order.
func (s Stats) QuarantinedProcessors() []string {
	var out []string
	seen := make(map[string]bool)
	for _, name := range append(append([]string(nil), s.Step1.Quarantined...), s.Step2.Quarantined...) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// Degraded reports whether either step ran in degraded mode.
func (s Stats) Degraded() bool { return s.Step1.Degraded() || s.Step2.Degraded() }

// TotalWatchdogKills sums both steps' watchdog-abandoned attempts.
func (s Stats) TotalWatchdogKills() int { return s.Step1.WatchdogKills + s.Step2.WatchdogKills }

// TotalAdmissions sums both steps' memory-budget admissions (in practice
// only Step 2 is gated).
func (s Stats) TotalAdmissions() int64 { return s.Step1.Admissions + s.Step2.Admissions }

// PeakAdmittedBytes is the larger step's peak concurrently admitted bytes.
func (s Stats) PeakAdmittedBytes() int64 {
	if s.Step1.PeakAdmittedBytes > s.Step2.PeakAdmittedBytes {
		return s.Step1.PeakAdmittedBytes
	}
	return s.Step2.PeakAdmittedBytes
}

// Result is a completed construction: its statistics, and the store holding
// the subgraph files the build published, from which WriteGraph streams the
// graph.
type Result struct {
	// Graph is what WriteGraph writes — the graph after OutputFilterMin —
	// decoded into memory when the build finished; nil unless KeepSubgraphs.
	Graph *graph.Subgraph
	// Stats records the run's measurements.
	Stats Stats

	// What WriteGraph needs: the store the build published its subgraph
	// files to, with its K and partition count.
	published  store.PartitionStore
	k          int
	partitions int
}

// newResult returns the result of a build of cfg that published its
// subgraphs to st.
func newResult(cfg Config, st store.PartitionStore) *Result {
	r := &Result{published: st, k: cfg.K, partitions: cfg.NumPartitions}
	r.Stats.Spill.PartitionMemoryBudgetBytes = cfg.PartitionMemoryBudgetBytes
	return r
}

// finish ends a build whose stats are complete, and is the one place that
// reads KeepSubgraphs: with it set, what WriteGraph streams is decoded into
// Graph through a pipe, so the serialised graph is never whole in memory.
func (r *Result) finish(cfg Config) error {
	if !cfg.KeepSubgraphs {
		return nil
	}
	pr, pw := io.Pipe()
	written := make(chan error, 1)
	go func() {
		_, _, err := r.WriteGraph(pw)
		pw.CloseWithError(err)
		written <- err
	}()
	g, err := graph.ReadSubgraph(pr)
	pr.CloseWithError(err) // a writer the reader gave up on stops with its error
	if werr := <-written; werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	r.Graph = g
	return nil
}

// WriteGraph writes the constructed graph as published — after the output
// filter — in the serialised form Graph.Write produces, and returns its
// vertex and distinct-edge counts (Stats.GraphVertices and GraphEdges). It
// writes a k-way merge of the subgraph files the build published
// (graph.MergeFiles) — from the checkpoint directory, or from the build's
// in-memory store — so nothing graph-sized is ever resident; the files must
// still be there, every one is open for the whole merge (on disk: one
// descriptor per partition, shared by every key range, all closed on
// return), and each is held to its header, its order and its declared size
// on the way: damage fails typed (graph.ErrBadFormat, graph.ErrUnsorted) and
// leaves part of a graph in w that the caller discards. A w that is an
// io.WriterAt — a file — is written at offsets from 0 by one merge per key
// range at once; any other gets the one merge, in order.
func (r *Result) WriteGraph(w io.Writer) (vertices, edges int64, err error) {
	srcs := make([]graph.Source, 0, r.partitions)
	for i := 0; i < r.partitions; i++ {
		src, err := r.published.OpenStream(subgraphFile(i))
		if err != nil {
			return 0, 0, fmt.Errorf("core: opening subgraph %d of %d (the finish holds one open file per partition): %w", i, r.partitions, err)
		}
		defer src.Close()
		srcs = append(srcs, src)
	}
	vertices, edges, err = graph.MergeFiles(r.k, srcs, w)
	if err != nil {
		return vertices, edges, fmt.Errorf("core: merging the published subgraphs: %w", err)
	}
	if vertices != r.Stats.GraphVertices || edges != r.Stats.GraphEdges {
		return vertices, edges, fmt.Errorf("core: %w: the published subgraphs hold %d vertices and %d edges, the build journalled %d and %d",
			graph.ErrBadFormat, vertices, edges, r.Stats.GraphVertices, r.Stats.GraphEdges)
	}
	return vertices, edges, nil
}
