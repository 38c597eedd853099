package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"parahash/internal/core"
	"parahash/internal/obs"
)

// sampleMetrics builds a parahash.metrics/v1 document with hand-picked
// values so the golden file exercises every field but dist; the hash_table
// ratios are derived from its counters.
func sampleMetrics() *core.BuildMetrics {
	return &core.BuildMetrics{
		Schema: core.MetricsSchema,
		Run: core.RunInfo{
			K: 27, P: 11, Partitions: 64, Medium: "mem-cached",
			Processors: []string{"CPU", "GPU0"},
		},
		Totals: core.Totals{
			Seconds: 12.5, TotalKmers: 1_000_000, DistinctVertices: 200_000,
			DuplicateVertices: 800_000, PeakMemoryBytes: 1 << 24, Degraded: true,
		},
		HashTable: core.HashStats{
			Inserts: 200_000, Updates: 800_000, Probes: 1_100_000,
			LockWaits: 42, CASFailures: 7,
		},
		MSP: core.MSPMetrics{
			Superkmers: 50_000, Kmers: 1_000_000,
			EncodedBytesWritten: 2_600_000, EncodedBytesRead: 2_600_000,
			PlainBytes: 10_000_000, EncodingRatio: 0.26,
		},
		Steps: []core.StepMetrics{
			{
				Name: "step1", Partitions: 16,
				MeasuredSeconds: 5.5, PredictedSeconds: 5.25,
				PredictedCoprocessingSeconds: 5.1,
				ModelErrorPct:                core.StepStats{PredictedSeconds: 5.25, Seconds: 5.5}.ModelErrorPct(),
				NonPipelinedSeconds:          9.0,
				InputSeconds:                 2.0, OutputSeconds: 1.0,
				Processors: []core.ProcessorMetrics{
					{Name: "CPU", BusySeconds: 4.0, WorkUnits: 700, Partitions: 11,
						MeasuredPartitions: 11, Share: 0.7, ShareIdeal: 0.68, SoloSeconds: 8.0},
					{Name: "GPU0", BusySeconds: 3.5, WorkUnits: 300, Partitions: 5,
						MeasuredPartitions: 5, Share: 0.3, ShareIdeal: 0.32, SoloSeconds: 17.0},
				},
			},
			{
				Name: "step2", Partitions: 64,
				MeasuredSeconds: 7.0, PredictedSeconds: 6.8,
				ModelErrorPct:       core.StepStats{PredictedSeconds: 6.8, Seconds: 7.0}.ModelErrorPct(),
				NonPipelinedSeconds: 11.0,
				InputSeconds:        1.5, OutputSeconds: 2.5,
				Retries: 2, Requeues: 3, BackoffSeconds: 0.15,
				Quarantined: []string{"GPU0"},
				Processors: []core.ProcessorMetrics{
					{Name: "CPU", BusySeconds: 6.5, WorkUnits: 180_000, Partitions: 60,
						MeasuredPartitions: 62, Share: 0.9, ShareIdeal: 0.88, SoloSeconds: 7.2},
					{Name: "GPU0", BusySeconds: 0.7, WorkUnits: 20_000, Partitions: 4,
						MeasuredPartitions: 2, Share: 0.1, ShareIdeal: 0.12, SoloSeconds: 52.0},
				},
			},
		},
		Resilience: core.ResilienceMetrics{
			Retries: 2, Requeues: 3, BackoffSeconds: 0.15,
			Quarantined: []string{"GPU0"},
		},
	}
}

func TestBuildMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleMetrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	obs.CheckGolden(t, "metrics.golden.json", buf.Bytes())

	// The export must stay parseable and keep its schema marker.
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if decoded["schema"] != core.MetricsSchema {
		t.Errorf("schema = %v, want %s", decoded["schema"], core.MetricsSchema)
	}
}
