package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"parahash/internal/fastq"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics documents")

// TestMetricsDocumentGolden pins the parahash.metrics/v1 document of real
// builds of the tiny profile on one single-threaded processor, the shapes
// whose every figure is deterministic: in-core, every partition spilled,
// a resume that rebuilds one partition, and GPU-only. A change to how the
// counters are gathered or rendered must leave these bytes alone.
func TestMetricsDocumentGolden(t *testing.T) {
	reads := tinyReads(t)
	base := func() Config {
		cfg := DefaultConfig()
		cfg.CPUThreads = 1
		cfg.NumGPUs = 0
		return cfg
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (*Result, Config)
	}{
		{"incore", func(t *testing.T) (*Result, Config) {
			cfg := base()
			return mustBuild(t, reads, cfg), cfg
		}},
		{"spill", func(t *testing.T) (*Result, Config) {
			cfg := base()
			cfg.PartitionMemoryBudgetBytes = 2048
			return mustBuild(t, reads, cfg), cfg
		}},
		{"resume", func(t *testing.T) (*Result, Config) {
			cfg := base()
			cfg.Checkpoint.Dir = t.TempDir()
			mustBuild(t, reads, cfg)
			if err := os.Remove(dataFile(cfg.Checkpoint.Dir, subgraphFile(5))); err != nil {
				t.Fatal(err)
			}
			cfg.Checkpoint.Resume = true
			return mustBuild(t, reads, cfg), cfg
		}},
		{"gpu", func(t *testing.T) (*Result, Config) {
			cfg := base()
			cfg.UseCPU, cfg.NumGPUs = false, 1
			return mustBuild(t, reads, cfg), cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, cfg := tc.build(t)
			var buf bytes.Buffer
			if err := MetricsOf(res, cfg).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "metrics-"+tc.name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden document (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("metrics document differs from %s:\n%s", path, buf.Bytes())
			}
		})
	}
}

func mustBuild(t *testing.T, reads []fastq.Read, cfg Config) *Result {
	t.Helper()
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestModelErrorPct holds the one definition of the Eq. 1 model error — the
// figure the CLI prints and the document's steps[].model_error_pct — to
// (measured−predicted)/predicted · 100, 0 without a prediction.
func TestModelErrorPct(t *testing.T) {
	for _, c := range []struct{ predicted, measured, want float64 }{
		{0, 5, 0}, {10, 11, 10}, {10, 9, -10},
	} {
		st := StepStats{PredictedSeconds: c.predicted, Seconds: c.measured}
		if got := st.ModelErrorPct(); got != c.want {
			t.Errorf("predicted %g, measured %g: error = %g%%, want %g%%", c.predicted, c.measured, got, c.want)
		}
	}
}
