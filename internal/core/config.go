// Package core assembles the ParaHash system: the two-step, partition-by-
// partition De Bruijn graph construction of the paper — Step 1 (MSP graph
// partitioning) and Step 2 (concurrent-hashing subgraph construction) —
// pipelined over heterogeneous processors with work stealing.
//
// Correctness is real: every partition is scanned, routed, decoded and
// hashed by the actual algorithms, and the result provably equals the naive
// reference construction. Timing is virtual: elapsed seconds are charged
// from the costmodel calibration, making the reported performance
// deterministic and host-independent (see DESIGN.md).
package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"parahash/internal/costmodel"
	"parahash/internal/device"
	"parahash/internal/dna"
	"parahash/internal/hashtable"
	"parahash/internal/manifest"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
	"parahash/internal/store"
)

// ResilienceConfig tunes the fault-tolerant pipeline runtime. Zero values
// select fail-fast behaviour (a single attempt, no quarantine), so a
// zero-valued Config still runs — DefaultConfig enables the full policy.
type ResilienceConfig struct {
	// MaxAttempts is the per-partition attempt budget for each pipeline
	// stage; values below 1 are treated as 1 (no retries).
	MaxAttempts int
	// QuarantineAfter removes a processor from the pipeline after this
	// many consecutive failures, re-queueing its partitions onto the
	// survivors; 0 disables quarantine.
	QuarantineAfter int
	// BackoffSeconds is the virtual-time backoff base charged per retry
	// (doubling per attempt); it is accounting only, never a real sleep.
	BackoffSeconds float64
	// BackoffJitter spreads each retry's backoff by a uniform factor in
	// [1-j, 1+j], decorrelating concurrent builds that would otherwise
	// retry a shared-store fault in lockstep. Must be in [0, 1]; 0 keeps
	// the exact exponential schedule.
	BackoffJitter float64
	// BackoffJitterSeed seeds the jitter stream so a run's charged backoff
	// is reproducible; concurrent builds should use distinct seeds.
	BackoffJitterSeed int64
	// PartitionDeadline is the watchdog's wall-clock bound on one partition
	// attempt (compute stage). An attempt that outlives it is abandoned and
	// charged as an ordinary processor fault, feeding the retry/quarantine
	// machinery above; 0 disables the watchdog.
	PartitionDeadline time.Duration
}

// CheckpointConfig selects the durable partition store and checkpoint/resume
// behaviour. With a zero value the build runs entirely against the in-memory
// simulated store, exactly as before.
type CheckpointConfig struct {
	// Dir, when non-empty, roots a durable on-disk checkpoint: partition and
	// subgraph files live under Dir/data (published atomically, fsynced),
	// and Dir/manifest.json journals per-partition completion.
	Dir string
	// Resume, with Dir set, resumes from an existing manifest instead of
	// starting fresh: verified completed partitions are skipped, corrupt or
	// missing ones are rebuilt, and a manifest whose config fingerprint
	// diverges from this run fails fast with ErrManifestMismatch.
	Resume bool
	// InputLabel identifies the input in the config fingerprint (a file
	// path, or a synthetic profile spec). Resuming with a different label
	// fails fast rather than mixing partitions from two inputs.
	InputLabel string
}

// Config parameterises a ParaHash run in the paper's terms.
type Config struct {
	// K is the k-mer length (vertex size); the paper evaluates K=27.
	K int
	// P is the minimizer length; the paper defaults to 11 for Human Chr14
	// and 19 for Bumblebee.
	P int
	// NumPartitions is the superkmer partition count (the paper defaults
	// to 512 for multi-gigabyte inputs, 960 for 100 GB or more; scaled
	// datasets want proportionally fewer). The finish holds one open file
	// per partition (Result.WriteGraph), so on disk the count must fit the
	// process's open-file limit beside whatever else it holds open.
	NumPartitions int

	// Lambda is λ of Property 1 — expected sequencing errors per read —
	// used to pre-size hash tables (paper default 2).
	Lambda float64
	// Alpha is the hash table load ratio α ∈ [0.5, 0.8] (default 0.65).
	Alpha float64

	// UseCPU enables the CPU as a compute processor.
	UseCPU bool
	// CPUThreads is the CPU worker count (paper machine: 20).
	CPUThreads int
	// NumGPUs is how many simulated GPUs co-process (0-2 in the paper).
	NumGPUs int
	// GPUMemoryBytes bounds each GPU's device memory (0 = unlimited; the
	// paper's K40m has 12 GB). Partitions whose hash table plus input
	// exceed it fail with device.ErrDeviceMemory — increase NumPartitions.
	GPUMemoryBytes int64

	// TableBackend selects the Step 2 hash-table implementation:
	// "statetransfer" (the paper's §III-C table, the default), "lockfree"
	// (CAS insertion per Górniak & Nowak) or "sharded" (hash-partitioned
	// regions per Tripathy & Green). Every backend produces a
	// byte-identical final graph; they differ in contention behaviour and
	// memory layout. Empty selects the state-transfer reference.
	TableBackend string

	// Medium selects the IO device timing: mem-cached (Case 1) or disk
	// (Case 2).
	Medium costmodel.Medium
	// Calibration supplies the virtual-time constants.
	Calibration costmodel.Calibration

	// KeepSubgraphs decodes the finished graph into Result.Graph: what
	// Result.WriteGraph streams from the published subgraph files — the
	// graph after OutputFilterMin — read back into memory once every
	// partition is published. It is for library callers that go on to use
	// the graph in memory, and it costs that memory, about the size of the
	// graph file. Nothing that only wants the file needs it — cmd/parahash
	// and parahashd build without it and call Result.WriteGraph; size-only
	// runs disable it too. It changes nothing else about a build.
	KeepSubgraphs bool

	// ExcludeGraphOutput drops the Step 2 subgraph write-out from the
	// virtual-time accounting (the graphs are still written). The paper's
	// assembler comparisons measure until "all the subgraphs are
	// constructed in main memory", excluding graph write-out for every
	// system, while still charging the superkmer partition write and read.
	ExcludeGraphOutput bool

	// OutputFilterMin, when > 1, filters vertices with total edge
	// multiplicity below it out of the written subgraph files — the
	// paper's "invalid vertices filtered" output (its 92 GB Bumblebee
	// input yields a ~20 GB graph file). The subgraph files, their IO
	// accounting, what Result.WriteGraph writes, Result.Graph (a decode of
	// it) and Stats.GraphVertices/GraphEdges all shrink; DistinctVertices
	// counts the graph before the filter. This is the one output filter:
	// the CLI's -filter and parahashd's FilterMin both set it, and it is
	// part of the checkpoint fingerprint.
	OutputFilterMin int

	// Resilience tunes partition retries, processor quarantine,
	// virtual-time backoff and the per-attempt watchdog for both pipeline
	// steps.
	Resilience ResilienceConfig

	// MemoryBudgetBytes, when positive, bounds Step 2's concurrent memory
	// residency: each partition is admitted through a weighted semaphore
	// charging its Property-1 predicted hash table footprint, so the sum of
	// admitted predictions never exceeds the budget (partitions queue
	// instead of OOMing). A single partition predicted above the whole
	// budget still runs, alone. 0 disables admission control.
	MemoryBudgetBytes int64

	// PartitionMemoryBudgetBytes, when positive, bounds one partition's
	// in-memory Step 2 footprint: a partition whose Property-1 table
	// prediction exceeds it is constructed out-of-core instead — superkmers
	// are scanned into budget-sized sorted runs, spilled to the partition
	// store, and k-way merged into the same sorted subgraph the hash-table
	// path produces (byte-identical output). When it is 0 but
	// MemoryBudgetBytes is set, partitions predicted above the whole build
	// budget are auto-routed to the spill path (with a warning via Logf)
	// instead of running alone against an admission weight clamped to the
	// budget. 0 with no MemoryBudgetBytes keeps every partition in-core.
	PartitionMemoryBudgetBytes int64

	// Logf, when set, receives warning-level build log lines (for example
	// when an oversized partition is auto-routed out-of-core). Nil discards
	// them.
	Logf func(format string, args ...any)

	// Checkpoint selects durable on-disk storage with a build manifest,
	// enabling crash-safe checkpoint/resume. The zero value keeps the
	// in-memory simulated store.
	Checkpoint CheckpointConfig

	// Trace, when non-nil, records per-partition stage spans from both
	// pipeline steps — wall-clock spans from the live run and virtual-time
	// spans from the schedule — for Chrome trace-event export.
	Trace *obs.Trace

	// ProcWrap, when set, post-processes the instantiated processor slice
	// before each pipeline step; fault injection (the chaos engine, the
	// core fault tests) uses it to script device drop-outs, per-call
	// failures and hangs. Production configs leave it nil.
	ProcWrap func([]device.Processor) []device.Processor

	// StoreWrap, when set, wraps the partition store the build reads and
	// writes through; fault injection uses it to script IO faults (via
	// faultinject.WrapStore) on either medium. Checkpoint resume
	// verification and Scrub bypass the wrapper — they must judge the
	// durable bytes actually on disk, not the fault layer's view of them.
	// Production configs leave it nil.
	StoreWrap func(store.PartitionStore) store.PartitionStore
}

// DefaultConfig returns the paper's default configuration, scaled-dataset
// partition count aside: K=27, P=11, λ=2, α=0.65, CPU with 20 threads plus
// two GPUs, memory-cached IO.
func DefaultConfig() Config {
	return Config{
		K:             27,
		P:             11,
		NumPartitions: 64,
		Lambda:        2,
		Alpha:         0.65,
		UseCPU:        true,
		CPUThreads:    20,
		NumGPUs:       2,
		Medium:        costmodel.MediumMemCached,
		Calibration:   costmodel.DefaultCalibration(),
		KeepSubgraphs: true,
		Resilience: ResilienceConfig{
			MaxAttempts:     3,
			QuarantineAfter: 2,
			BackoffSeconds:  0.05,
		},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.K < 2 || c.K > dna.MaxK:
		return fmt.Errorf("core: K=%d out of range [2,%d]", c.K, dna.MaxK)
	case c.P < 1 || c.P > c.K:
		return fmt.Errorf("core: P=%d out of range [1,K=%d]", c.P, c.K)
	case c.P > dna.MaxP:
		return fmt.Errorf("core: P=%d exceeds MaxP=%d", c.P, dna.MaxP)
	case c.NumPartitions < 1:
		return fmt.Errorf("core: NumPartitions=%d must be positive", c.NumPartitions)
	case c.Lambda <= 0:
		return fmt.Errorf("core: Lambda=%g must be positive", c.Lambda)
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("core: Alpha=%g out of range (0,1]", c.Alpha)
	case !c.UseCPU && c.NumGPUs == 0:
		return fmt.Errorf("core: no processors configured")
	case c.UseCPU && c.CPUThreads < 1:
		return fmt.Errorf("core: CPUThreads=%d must be positive", c.CPUThreads)
	case c.NumGPUs < 0:
		return fmt.Errorf("core: NumGPUs=%d must be non-negative", c.NumGPUs)
	case c.Medium != costmodel.MediumMemCached && c.Medium != costmodel.MediumDisk:
		return fmt.Errorf("core: unknown IO medium %d", c.Medium)
	case c.Resilience.MaxAttempts < 0:
		return fmt.Errorf("core: Resilience.MaxAttempts=%d must be non-negative", c.Resilience.MaxAttempts)
	case c.Resilience.QuarantineAfter < 0:
		return fmt.Errorf("core: Resilience.QuarantineAfter=%d must be non-negative", c.Resilience.QuarantineAfter)
	case c.Resilience.BackoffSeconds < 0:
		return fmt.Errorf("core: Resilience.BackoffSeconds=%g must be non-negative", c.Resilience.BackoffSeconds)
	case c.Resilience.BackoffJitter < 0 || c.Resilience.BackoffJitter > 1:
		return fmt.Errorf("core: Resilience.BackoffJitter=%g out of range [0,1]", c.Resilience.BackoffJitter)
	case c.Resilience.PartitionDeadline < 0:
		return fmt.Errorf("core: Resilience.PartitionDeadline=%v must be non-negative", c.Resilience.PartitionDeadline)
	case c.MemoryBudgetBytes < 0:
		return fmt.Errorf("core: MemoryBudgetBytes=%d must be non-negative", c.MemoryBudgetBytes)
	case c.PartitionMemoryBudgetBytes < 0:
		return fmt.Errorf("core: PartitionMemoryBudgetBytes=%d must be non-negative", c.PartitionMemoryBudgetBytes)
	case c.Checkpoint.Resume && c.Checkpoint.Dir == "":
		return fmt.Errorf("core: Checkpoint.Resume requires Checkpoint.Dir")
	}
	if _, err := hashtable.ParseBackend(c.TableBackend); err != nil {
		return fmt.Errorf("core: TableBackend: %w", err)
	}
	return c.Calibration.Validate()
}

// tableBackend resolves the configured backend, defaulting to the paper's
// state-transfer table. Validate has already rejected unknown names.
func (c Config) tableBackend() hashtable.Backend {
	b, err := hashtable.ParseBackend(c.TableBackend)
	if err != nil {
		return hashtable.BackendStateTransfer
	}
	return b
}

// logf emits a warning-level build log line through Logf, if set.
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// fingerprint derives the manifest config fingerprint from every field that
// determines partition file content: K, P, the partition count, the output
// filter, and the input identity. Scheduling knobs (chunking, processors,
// calibration) are deliberately excluded — they change timing, never bytes —
// so a resume may rebalance processors without invalidating the checkpoint.
// The memory budgets (including PartitionMemoryBudgetBytes) are excluded for
// the same reason: the spill path produces byte-identical subgraphs, so a
// resume may tighten or drop the budget freely.
func (c Config) fingerprint() string {
	return manifest.Fingerprint(
		"k="+strconv.Itoa(c.K),
		"p="+strconv.Itoa(c.P),
		"partitions="+strconv.Itoa(c.NumPartitions),
		"filter="+strconv.Itoa(c.OutputFilterMin),
		"input="+c.Checkpoint.InputLabel,
	)
}

// resiliencePolicy maps the resilience config onto the pipeline policy.
func (c Config) resiliencePolicy() pipeline.Policy {
	return pipeline.Policy{
		MaxAttempts:       c.Resilience.MaxAttempts,
		QuarantineAfter:   c.Resilience.QuarantineAfter,
		BackoffSeconds:    c.Resilience.BackoffSeconds,
		BackoffJitter:     c.Resilience.BackoffJitter,
		BackoffJitterSeed: c.Resilience.BackoffJitterSeed,
		Retryable:         retryableIOFault,
		AttemptTimeout:    c.Resilience.PartitionDeadline,
	}
}

// retryableIOFault classifies read/write-stage errors for the resilient
// runner. Corruption (detected by the msp integrity footer) and generic IO
// faults are transient — a re-read serves fresh bytes — but a missing file
// and a full disk are deterministic: retrying either is pointless, so the
// partition fails fast with its typed error intact (ErrDiskFull leaves the
// manifest and every published partition ready for a -resume).
func retryableIOFault(err error) bool {
	return !errors.Is(err, store.ErrNotFound) && !errors.Is(err, store.ErrDiskFull)
}

// NumProcessors returns the configured compute device count.
func (c Config) NumProcessors() int {
	n := c.NumGPUs
	if c.UseCPU {
		n++
	}
	return n
}
