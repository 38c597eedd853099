// Package parahash is a from-scratch Go reproduction of ParaHash (Qiu &
// Luo, "Parallelizing Big De Bruijn Graph Construction on Heterogeneous
// Processors", ICDCS 2017): partition-by-partition De Bruijn graph
// construction that combines Minimum Substring Partitioning (Step 1) with
// concurrent state-transfer hashing (Step 2), pipelined across a
// multi-threaded CPU and (simulated) GPUs with work stealing.
//
// Quickstart:
//
//	dataset, _ := parahash.GenerateDataset(parahash.TinyProfile())
//	cfg := parahash.DefaultConfig()
//	res, err := parahash.Build(dataset.Reads, cfg)
//	// res.Graph is the bi-directed De Bruijn graph with edge multiplicities.
//
// The heavy lifting lives in the internal packages (dna, msp, hashtable,
// graph, pipeline, device, costmodel); this package re-exports the stable
// public surface. See DESIGN.md for the system inventory and the simulated
// substitutions for GPU hardware and GAGE datasets.
package parahash

import (
	"context"
	"io"

	"parahash/internal/core"
	"parahash/internal/costmodel"
	"parahash/internal/dist"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/obs"
	"parahash/internal/simulate"
)

// Config parameterises a construction run; see core.Config for the fields.
type Config = core.Config

// CheckpointConfig selects a durable on-disk partition store with a build
// manifest, enabling crash-safe checkpoint/resume; set Config.Checkpoint.
type CheckpointConfig = core.CheckpointConfig

// ErrManifestMismatch reports a resume attempt whose configuration diverges
// from the checkpoint's manifest; the build fails fast instead of mixing
// partitions from two different constructions.
var ErrManifestMismatch = core.ErrManifestMismatch

// ErrCanceled is wrapped into every error returned from a build cut short by
// its context (cancellation, timeout, SIGINT/SIGTERM). A canceled
// checkpointed build keeps its completed partitions journalled for resume.
var ErrCanceled = core.ErrCanceled

// ErrNoUsableReads reports an input that yielded no k-mer: no reads, or none
// at least K bases long.
var ErrNoUsableReads = core.ErrNoUsableReads

// Result is a completed construction: the run's statistics, WriteGraph to
// stream the graph from the published subgraph files, and — with
// Config.KeepSubgraphs — that same graph decoded into Graph.
type Result = core.Result

// Stats aggregates a run's measurements (virtual-time performance, memory,
// graph size).
type Stats = core.Stats

// StepStats records one pipeline step's performance.
type StepStats = core.StepStats

// HashStats aggregates the Step 2 hash table work counters.
type HashStats = core.HashStats

// Read is one sequencing read.
type Read = fastq.Read

// Graph is a De Bruijn (sub)graph: canonical k-mer vertices with eight
// edge-multiplicity counters each.
type Graph = graph.Subgraph

// Vertex is one graph vertex with its adjacency counters.
type Vertex = graph.Vertex

// Profile describes a synthetic dataset in Table I terms.
type Profile = simulate.Profile

// Dataset is a generated genome plus its reads.
type Dataset = simulate.Dataset

// Calibration holds the virtual-time cost model constants.
type Calibration = costmodel.Calibration

// BuildMetrics is the parahash.metrics/v1 document serialised by
// -metrics-json: hash-table contention, MSP encoding, per-step
// predicted-vs-measured model validation and per-processor workload shares.
type BuildMetrics = core.BuildMetrics

// Trace records per-partition pipeline stage spans (wall-clock and
// virtual-time) for Chrome trace-event export; set Config.Trace to collect.
type Trace = obs.Trace

// IO media for the performance model's two regimes.
const (
	// MediumMemCached models the paper's Case 1 (IO ≪ compute).
	MediumMemCached = costmodel.MediumMemCached
	// MediumDisk models Case 2 (IO > compute).
	MediumDisk = costmodel.MediumDisk
)

// DefaultConfig returns the paper's default configuration (K=27, P=11,
// λ=2, α=0.65, 20 CPU threads + 2 GPUs, memory-cached IO).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCalibration models the paper's evaluation machine
// (2× Xeon E5-2660 + 2× Tesla K40m).
func DefaultCalibration() Calibration { return costmodel.DefaultCalibration() }

// Build constructs the De Bruijn graph of the reads with the full ParaHash
// two-step pipeline.
func Build(reads []Read, cfg Config) (*Result, error) { return core.Build(reads, cfg) }

// BuildContext is Build under a context: canceling ctx stops the pipeline
// promptly and leak-free, and the returned error wraps ErrCanceled.
func BuildContext(ctx context.Context, reads []Read, cfg Config) (*Result, error) {
	return core.BuildContext(ctx, reads, cfg)
}

// BuildFromReader constructs the graph from a plain or gzip-compressed
// FASTA/FASTQ stream without materialising the full read set: Step 1 holds
// a few chunks of reads at a time — those between its overlapped parse, scan
// and encode stages — matching the paper's out-of-core operation.
func BuildFromReader(r io.Reader, cfg Config) (*Result, error) {
	return core.BuildFromReader(r, cfg, 0)
}

// BuildFromReaderContext is BuildFromReader under a context; see
// BuildContext for the cancellation contract.
func BuildFromReaderContext(ctx context.Context, r io.Reader, cfg Config) (*Result, error) {
	return core.BuildFromReaderContext(ctx, r, cfg, 0)
}

// NewTrace returns an empty span trace ready to hang on Config.Trace.
func NewTrace() *Trace { return obs.NewTrace() }

// MetricsOf assembles the observability registry for a finished run; cfg
// must be the configuration the result was built with.
func MetricsOf(res *Result, cfg Config) *BuildMetrics { return core.MetricsOf(res, cfg) }

// BuildNaive constructs the graph with the single-threaded reference
// implementation — useful for validating custom pipelines on small inputs.
func BuildNaive(reads []Read, k int) *Graph { return graph.BuildNaive(reads, k) }

// ParseReads parses FASTA or FASTQ input (format auto-detected).
func ParseReads(r io.Reader) ([]Read, error) { return fastq.ReadAll(r) }

// WriteFASTQ writes reads as FASTQ.
func WriteFASTQ(w io.Writer, reads []Read) error { return fastq.WriteFASTQ(w, reads) }

// GenerateDataset builds a synthetic dataset for a profile.
func GenerateDataset(p Profile) (*Dataset, error) { return simulate.Generate(p) }

// HumanChr14Profile is the scaled GAGE Human Chr14 stand-in.
func HumanChr14Profile() Profile { return simulate.HumanChr14Profile() }

// BumblebeeProfile is the scaled GAGE Bumblebee stand-in.
func BumblebeeProfile() Profile { return simulate.BumblebeeProfile() }

// TinyProfile is a fast dataset for demos and tests.
func TinyProfile() Profile { return simulate.TinyProfile() }

// ReadGraph parses a serialised subgraph produced by Graph.Write.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadSubgraph(r) }

// Distributed build surface: Step 2 fanned out to worker processes under
// manifest-journalled leases with fencing tokens (see internal/dist).

// DistPlan is a checkpointed build prepared for distributed Step 2.
type DistPlan = core.DistPlan

// DistStats aggregates the distributed build's fault-tolerance counters.
type DistStats = core.DistStats

// DistOptions tunes the distributed coordinator (fleet size, lease
// duration, failure budgets).
type DistOptions = dist.Options

// DistTransport starts distributed workers; dist.ProcTransport spawns
// subprocesses, dist.LocalTransport runs scripted in-process workers.
type DistTransport = dist.Transport

// ErrWorkersExhausted reports a distributed build whose whole worker fleet
// died or was quarantined; the checkpoint stays resumable.
var ErrWorkersExhausted = dist.ErrWorkersExhausted

// PrepareDistBuild runs Step 1 into the configured checkpoint and returns
// the plan whose pending partitions a distributed coordinator leases out.
func PrepareDistBuild(ctx context.Context, reads []Read, cfg Config) (*DistPlan, error) {
	return core.PrepareDistBuild(ctx, reads, cfg)
}

// PrepareDistBuildFromReader is PrepareDistBuild over a plain or
// gzip-compressed FASTA/FASTQ stream, read a few chunks at a time as
// BuildFromReader reads it, so the coordinator never holds the read set.
func PrepareDistBuildFromReader(ctx context.Context, r io.Reader, cfg Config) (*DistPlan, error) {
	return core.PrepareDistBuildFromReader(ctx, r, cfg)
}

// RunDistributed executes the plan's Step 2 across a worker fleet started
// through the transport, surviving worker crashes, hangs and partitions by
// lease expiry, fencing and reassignment. Call plan.Finish with the
// returned stats to assemble the Result.
func RunDistributed(ctx context.Context, plan *DistPlan, tr DistTransport, opts DistOptions) (DistStats, error) {
	return dist.Run(ctx, plan, tr, opts)
}
