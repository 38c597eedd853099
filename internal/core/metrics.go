package core

import (
	"encoding/json"
	"io"
)

// MetricsSchema identifies the metrics JSON layout; bump on breaking
// changes so downstream dashboards can dispatch on it.
const MetricsSchema = "parahash.metrics/v1"

// BuildMetrics is the parahash.metrics/v1 document of a finished
// construction run, the struct the -metrics-json flag serialises. Its
// hash_table, spill and dist objects are the build's own records (Stats.Hash,
// Stats.Spill, Stats.Dist); the rest are formats of Stats assembled by
// MetricsOf. Field order is the schema; keep additions append-only within
// each struct.
type BuildMetrics struct {
	Schema     string            `json:"schema"`
	Run        RunInfo           `json:"run"`
	Totals     Totals            `json:"totals"`
	HashTable  HashStats         `json:"hash_table"`
	MSP        MSPMetrics        `json:"msp"`
	Steps      []StepMetrics     `json:"steps"`
	Resilience ResilienceMetrics `json:"resilience"`
	Governance GovernanceMetrics `json:"governance"`
	Spill      SpillStats        `json:"spill"`
	Dist       *DistStats        `json:"dist,omitempty"`
}

// WriteJSON serialises the document with stable field ordering and a
// trailing newline.
func (m *BuildMetrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// MetricsOf assembles the metrics document of a finished run. cfg must be
// the configuration the result was built with (it pins the run info and the
// processor roster).
func MetricsOf(res *Result, cfg Config) *BuildMetrics {
	return &BuildMetrics{
		Schema: MetricsSchema,
		Run: RunInfo{
			K:          cfg.K,
			P:          cfg.P,
			Partitions: cfg.NumPartitions,
			Medium:     cfg.Medium.String(),
			Processors: procNames(processors(cfg)),
		},
		Totals: Totals{
			Seconds:           res.Stats.TotalSeconds,
			TotalKmers:        res.Stats.TotalKmers,
			DistinctVertices:  res.Stats.DistinctVertices,
			DuplicateVertices: res.Stats.DuplicateVertices,
			PeakMemoryBytes:   res.Stats.PeakMemoryBytes,
			Degraded:          res.Stats.Degraded(),
		},
		HashTable: res.Stats.Hash,
		MSP: MSPMetrics{
			Superkmers:          res.Stats.Superkmers.TotalSuperkmers,
			Kmers:               res.Stats.Superkmers.TotalKmers,
			EncodedBytesWritten: res.Stats.Superkmers.TotalEncoded,
			EncodedBytesRead:    res.Stats.DecodedBytes,
			PlainBytes:          res.Stats.Superkmers.TotalPlain,
			EncodingRatio:       res.Stats.Superkmers.EncodingRatio(),
		},
		Steps: []StepMetrics{
			stepMetricsOf("step1", res.Stats.Step1),
			stepMetricsOf("step2", res.Stats.Step2),
		},
		Resilience: ResilienceMetrics{
			Retries:           res.Stats.TotalRetries(),
			Requeues:          res.Stats.TotalRequeues(),
			BackoffSeconds:    res.Stats.Step1.BackoffSeconds + res.Stats.Step2.BackoffSeconds,
			Quarantined:       res.Stats.QuarantinedProcessors(),
			ResumedPartitions: res.Stats.ResumedPartitions,
			RebuiltPartitions: res.Stats.RebuiltPartitions,
		},
		Governance: GovernanceMetrics{
			Cancellations:        res.Stats.Step1.CanceledAttempts + res.Stats.Step2.CanceledAttempts,
			WatchdogKills:        res.Stats.TotalWatchdogKills(),
			MemoryBudgetBytes:    cfg.MemoryBudgetBytes,
			Admissions:           res.Stats.TotalAdmissions(),
			AdmissionWaits:       res.Stats.Step1.AdmissionWaits + res.Stats.Step2.AdmissionWaits,
			AdmissionWaitSeconds: res.Stats.Step1.AdmissionWaitSeconds + res.Stats.Step2.AdmissionWaitSeconds,
			PeakAdmittedBytes:    res.Stats.PeakAdmittedBytes(),
		},
		Spill: res.Stats.Spill,
		Dist:  res.Stats.Dist,
	}
}

// stepMetricsOf converts one step's stats, folding the per-processor slices
// into named ProcessorMetrics rows (measured vs ideal shares — Fig. 11).
func stepMetricsOf(name string, st StepStats) StepMetrics {
	shares, ideal := st.WorkloadShares(), st.IdealShares()
	procs := make([]ProcessorMetrics, len(st.ProcessorNames))
	for i, pname := range st.ProcessorNames {
		procs[i] = ProcessorMetrics{
			Name: pname, BusySeconds: at(st.ProcessorBusy, i), WorkUnits: at(st.ProcessorUnits, i),
			Partitions: at(st.ProcessorParts, i), MeasuredPartitions: at(st.MeasuredProcessorParts, i),
			Share: at(shares, i), ShareIdeal: at(ideal, i), SoloSeconds: at(st.SoloSeconds, i),
		}
	}
	return StepMetrics{
		Name:                         name,
		Partitions:                   st.Partitions,
		MeasuredSeconds:              st.Seconds,
		PredictedSeconds:             st.PredictedSeconds,
		PredictedCoprocessingSeconds: st.PredictedCoprocessingSeconds,
		ModelErrorPct:                st.ModelErrorPct(),
		NonPipelinedSeconds:          st.NonPipelinedSeconds,
		InputSeconds:                 st.InputSeconds,
		OutputSeconds:                st.OutputSeconds,
		Retries:                      st.Retries,
		Requeues:                     st.Requeues,
		BackoffSeconds:               st.BackoffSeconds,
		Quarantined:                  st.Quarantined,
		Processors:                   procs,
		WatchdogKills:                st.WatchdogKills,
		CanceledAttempts:             st.CanceledAttempts,
		Admissions:                   st.Admissions,
		AdmissionWaits:               st.AdmissionWaits,
		AdmissionWaitSeconds:         st.AdmissionWaitSeconds,
		PeakAdmittedBytes:            st.PeakAdmittedBytes,
	}
}

// at is s[i], or the zero value past the end of s.
func at[T any](s []T, i int) T {
	if i < len(s) {
		return s[i]
	}
	var zero T
	return zero
}

// MSPMetrics records Step 1's encoding effectiveness and Step 2's decode
// traffic. EncodingRatio is msp.StatsSummary.EncodingRatio.
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
