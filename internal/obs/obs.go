// Package obs is ParaHash's observability layer: a metrics registry that
// gathers the quantities the paper's evaluation is built on — hash-table
// state-transfer contention (§III-C3), per-processor workload distribution
// (§III-E, Fig. 11), MSP encoding effectiveness (§III-B), and the Eq. 1–2
// performance-model predictions of §IV — plus a schedule tracer that
// exports per-partition pipeline stage spans as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing).
//
// The package is a leaf: it depends only on the pipeline package (for
// virtual-schedule conversion) so every other layer can feed it without
// import cycles. It imports neither net/http nor runtime/pprof: the query
// path links it, so live-profiling hooks belong in a command. All encoders emit fields in a fixed order, making outputs
// golden-testable and diff-friendly.
package obs

import (
	"encoding/json"
	"io"
)

// MetricsSchema identifies the metrics JSON layout; bump on breaking
// changes so downstream dashboards can dispatch on it.
const MetricsSchema = "parahash.metrics/v1"

// HashTableMetrics aggregates the state-transfer hash table counters across
// every Step 2 partition. ContentionReduction is Updates/(Inserts+Updates):
// the fraction of key accesses that avoided locking, ≈0.8 on the paper's
// datasets ("reduce the contentious lock on the keys by 80%").
type HashTableMetrics struct {
	Inserts             int64   `json:"inserts"`
	Updates             int64   `json:"updates"`
	Probes              int64   `json:"probes"`
	LockWaits           int64   `json:"lock_waits"`
	CASFailures         int64   `json:"cas_failures"`
	ContentionReduction float64 `json:"contention_reduction"`
	ProbesPerAccess     float64 `json:"probes_per_access"`
}

// MSPMetrics records Step 1's encoding effectiveness and Step 2's decode
// traffic. EncodingRatio is encoded/plain bytes (≈0.26 with 2-bit packing).
type MSPMetrics struct {
	Superkmers          int64   `json:"superkmers"`
	Kmers               int64   `json:"kmers"`
	EncodedBytesWritten int64   `json:"encoded_bytes_written"`
	EncodedBytesRead    int64   `json:"encoded_bytes_read"`
	PlainBytes          int64   `json:"plain_bytes"`
	EncodingRatio       float64 `json:"encoding_ratio"`
}

// ProcessorMetrics is one processor's share of a step.
type ProcessorMetrics struct {
	Name        string  `json:"name"`
	BusySeconds float64 `json:"busy_seconds"`
	WorkUnits   int64   `json:"work_units"`
	// Partitions is the virtual schedule's partition count for this
	// processor; MeasuredPartitions is the live run's (from the pipeline
	// report's assignment — never-produced partitions attributed to no one).
	Partitions         int     `json:"partitions"`
	MeasuredPartitions int     `json:"measured_partitions"`
	Share              float64 `json:"share"`
	ShareIdeal         float64 `json:"share_ideal"`
	SoloSeconds        float64 `json:"solo_seconds"`
}

// StepMetrics records one pipeline step, including the predicted-vs-measured
// model validation: PredictedSeconds evaluates Eq. 1 from the measured stage
// totals, PredictedCoprocessingSeconds Eq. 2 from the solo times, and
// ModelErrorPct is (measured−predicted)/predicted · 100.
type StepMetrics struct {
	Name                         string             `json:"name"`
	Partitions                   int                `json:"partitions"`
	MeasuredSeconds              float64            `json:"measured_seconds"`
	PredictedSeconds             float64            `json:"predicted_seconds"`
	PredictedCoprocessingSeconds float64            `json:"predicted_coprocessing_seconds"`
	ModelErrorPct                float64            `json:"model_error_pct"`
	NonPipelinedSeconds          float64            `json:"non_pipelined_seconds"`
	InputSeconds                 float64            `json:"input_seconds"`
	OutputSeconds                float64            `json:"output_seconds"`
	Retries                      int                `json:"retries"`
	Requeues                     int                `json:"requeues"`
	BackoffSeconds               float64            `json:"backoff_seconds"`
	Quarantined                  []string           `json:"quarantined,omitempty"`
	Processors                   []ProcessorMetrics `json:"processors"`
	WatchdogKills                int                `json:"watchdog_kills"`
	CanceledAttempts             int                `json:"canceled_attempts"`
	Admissions                   int64              `json:"admissions"`
	AdmissionWaits               int64              `json:"admission_waits"`
	AdmissionWaitSeconds         float64            `json:"admission_wait_seconds"`
	PeakAdmittedBytes            int64              `json:"peak_admitted_bytes"`
}

// RunInfo pins the configuration a metrics file was produced under.
type RunInfo struct {
	K          int      `json:"k"`
	P          int      `json:"p"`
	Partitions int      `json:"partitions"`
	Medium     string   `json:"medium"`
	Processors []string `json:"processors"`
}

// Totals summarises the whole build.
type Totals struct {
	Seconds           float64 `json:"seconds"`
	TotalKmers        int64   `json:"total_kmers"`
	DistinctVertices  int64   `json:"distinct_vertices"`
	DuplicateVertices int64   `json:"duplicate_vertices"`
	PeakMemoryBytes   int64   `json:"peak_memory_bytes"`
	Degraded          bool    `json:"degraded"`
}

// ResilienceMetrics aggregates fault handling across both steps, including
// checkpoint/resume outcomes: partitions skipped because a prior run's
// durable output verified, and claimed partitions that failed verification
// and were re-executed.
type ResilienceMetrics struct {
	Retries           int      `json:"retries"`
	Requeues          int      `json:"requeues"`
	BackoffSeconds    float64  `json:"backoff_seconds"`
	Quarantined       []string `json:"quarantined,omitempty"`
	ResumedPartitions int      `json:"resumed_partitions"`
	RebuiltPartitions int      `json:"rebuilt_partitions"`
}

// GovernanceMetrics aggregates the run-governance counters across both
// steps: cancellation accounting, watchdog kills, and the memory-budget
// admission controller's work. All zero on an ungoverned run.
type GovernanceMetrics struct {
	// Cancellations counts stage attempts cut short by context
	// cancellation (a completed run that was never canceled reports 0).
	Cancellations int `json:"cancellations"`
	// WatchdogKills counts partition attempts abandoned after exceeding
	// the configured partition deadline.
	WatchdogKills int `json:"watchdog_kills"`
	// MemoryBudgetBytes echoes the configured admission budget (0 = off).
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
	// Admissions counts partitions admitted through the budget gate.
	Admissions int64 `json:"admissions"`
	// AdmissionWaits counts admissions that queued for budget.
	AdmissionWaits int64 `json:"admission_waits"`
	// AdmissionWaitSeconds is total wall-clock time spent queued.
	AdmissionWaitSeconds float64 `json:"admission_wait_seconds"`
	// PeakAdmittedBytes is the largest concurrently admitted predicted
	// footprint; by construction ≤ MemoryBudgetBytes when the gate is on.
	PeakAdmittedBytes int64 `json:"peak_admitted_bytes"`
}

// SpillMetrics aggregates the out-of-core Step 2 path's work: partitions
// whose predicted hash table exceeded their memory budget and were
// constructed by external-memory sort-merge instead. All zero when every
// partition fit in-core.
type SpillMetrics struct {
	// SpilledPartitions counts partitions constructed out-of-core;
	// AutoRouted is the subset routed automatically because their table
	// prediction exceeded the whole build's memory budget with no
	// per-partition budget configured.
	SpilledPartitions int `json:"spilled_partitions"`
	AutoRouted        int `json:"auto_routed"`
	// SpillRuns and SpillBytes are the sorted run files spilled to the
	// store and their total serialized size.
	SpillRuns  int64 `json:"spill_runs"`
	SpillBytes int64 `json:"spill_bytes"`
	// MergePasses counts merge passes performed (final streaming merges
	// included; >1 per partition means the fan-in forced reduction passes).
	MergePasses int64 `json:"merge_passes"`
	// PartitionMemoryBudgetBytes echoes the configured per-partition
	// budget (0 = auto-routing against the build budget only).
	PartitionMemoryBudgetBytes int64 `json:"partition_memory_budget_bytes"`
}

// DistMetrics aggregates the distributed-build fault-tolerance counters: a
// coordinator's record of how the worker fleet behaved. Present only on
// `-workers=N` runs (the field is omitted for single-process builds, so
// existing consumers of the schema are unaffected).
type DistMetrics struct {
	// Workers is the configured fleet size; Spawned counts worker
	// processes actually started, replacements included.
	Workers int `json:"workers"`
	Spawned int `json:"spawned"`
	// LeaseGrants counts partition-range leases granted; LeaseExpiries
	// counts leases revoked after missing their heartbeat deadline.
	LeaseGrants   int64 `json:"lease_grants"`
	LeaseExpiries int64 `json:"lease_expiries"`
	// Reassignments counts partitions re-leased to a surviving worker.
	Reassignments int64 `json:"reassignments"`
	// FencedWrites counts stale-token results rejected — each one a write
	// that fencing prevented from corrupting a re-assigned partition.
	FencedWrites int64 `json:"fenced_writes"`
	// WorkerQuarantines counts workers removed after exhausting their
	// failure budget.
	WorkerQuarantines int64 `json:"worker_quarantines"`
}

// BuildMetrics is the one-stop registry for a finished construction run —
// the struct the -metrics-json flag serialises. Field order is the schema;
// keep additions append-only within each struct.
type BuildMetrics struct {
	Schema     string            `json:"schema"`
	Run        RunInfo           `json:"run"`
	Totals     Totals            `json:"totals"`
	HashTable  HashTableMetrics  `json:"hash_table"`
	MSP        MSPMetrics        `json:"msp"`
	Steps      []StepMetrics     `json:"steps"`
	Resilience ResilienceMetrics `json:"resilience"`
	Governance GovernanceMetrics `json:"governance"`
	Spill      SpillMetrics      `json:"spill"`
	Dist       *DistMetrics      `json:"dist,omitempty"`
}

// WriteJSON serialises the registry with stable field ordering and a
// trailing newline.
func (m *BuildMetrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ContentionReductionOf computes Updates/(Inserts+Updates), the §III-C3
// lock-avoidance fraction, guarding the empty case.
func ContentionReductionOf(inserts, updates int64) float64 {
	if inserts+updates == 0 {
		return 0
	}
	return float64(updates) / float64(inserts+updates)
}

// ModelErrorPct returns (measured−predicted)/predicted · 100, or 0 when the
// prediction is zero (nothing to validate against).
func ModelErrorPct(predicted, measured float64) float64 {
	if predicted == 0 {
		return 0
	}
	return (measured - predicted) / predicted * 100
}
