package main

import (
	"path/filepath"
	"runtime"
	"testing"
)

// exactCounts are per-layer metrics that count work, so one seed must
// reproduce them bit for bit and another seed must not.
var exactCounts = []string{
	"fastq.reads", "msp.superkmers", "msp.kmers", "msp.encoded_bytes",
	"hashtable.inserts", "hashtable.updates", "graph.bytes", "device.spill_runs",
}

// TestSmoke runs every workload end to end and traced at a tiny scale and
// checks the contract BENCHMARK.json states: every listed metric is emitted
// by every workload with its unit, nothing fails, and counts are a function
// of the seed alone.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the product binaries")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	newEnv := func(seed int64) *env {
		return &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), work: t.TempDir(), out: t.TempDir(),
			spec: sp, seed: seed, scale: 0.02, seconds: 0.2, repeats: 2, nproc: runtime.NumCPU()}
	}
	e := newEnv(1)
	if err := e.compile(); err != nil {
		t.Fatal(err)
	}

	first := e.runAll(workloadNames, []bool{false, true})
	if len(first) != 2*len(workloadNames) {
		t.Fatalf("got %d results, want %d", len(first), 2*len(workloadNames))
	}
	for _, wr := range first {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s traced=%v: %d of %d operations failed: %v %s", wr.Workload, wr.Traced, wr.Failed, wr.Attempted, wr.Failures, wr.Error)
		}
		for _, d := range sp.metricsFor(wr.Traced) {
			m, ok := wr.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || m.Unit == "" {
				t.Errorf("%s traced=%v: metric %s missing or without its unit %q: %+v", wr.Workload, wr.Traced, d.Name, d.Unit, m)
			}
			if !wr.Traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wr.Workload, d.Name, m.Value)
			}
		}
		if _, err := wr.driverLine(sp); err != nil {
			t.Error(err)
		}
	}

	// The layer predictions BENCHMARK.json's workloads rest on.
	traced := map[string]workloadResult{}
	for _, wr := range first[len(workloadNames):] {
		traced[wr.Workload] = wr
	}
	value := func(w, m string) float64 { return traced[w].Metrics[m].Value }
	insertShare := func(w string) float64 {
		return value(w, "hashtable.inserts") / (value(w, "hashtable.inserts") + value(w, "hashtable.updates"))
	}
	if value("spill", "hashtable.insert_s") != 0 || value("spill", "device.spill_runs") == 0 {
		t.Error("spill must bypass the hash table and spill runs")
	}
	if value("incore", "device.spill_runs_s") != 0 || value("incore", "hashtable.inserts") == 0 {
		t.Error("incore must use the hash table and spill nothing")
	}
	if value("dist", "dist.lease_expiries") != 0 || value("dist", "dist.lease_grants") == 0 {
		t.Error("a fault-free dist run grants leases and expires none")
	}
	if in, sv := insertShare("incore"), insertShare("serve"); in >= 0.35 || sv <= 0.5 {
		t.Errorf("insert share: incore %.2f (want < 0.35), serve %.2f (want > 0.5)", in, sv)
	}

	// incore and spill between them produce every exact count.
	again := newEnv(1).runAll([]string{"incore", "spill"}, []bool{true})
	other := newEnv(2).runAll([]string{"incore", "spill"}, []bool{true})
	for i, wr := range again {
		differs := false
		for _, name := range exactCounts {
			want := traced[wr.Workload].Metrics[name].Value
			if got := wr.Metrics[name].Value; got != want {
				t.Errorf("%s: %s = %v on a second run of seed 1, first run had %v", wr.Workload, name, got, want)
			}
			differs = differs || other[i].Metrics[name].Value != want
		}
		if !differs {
			t.Errorf("%s: seed 2 reproduced every exact count of seed 1", wr.Workload)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
	q1, med, q3 := quartiles([]float64{22, 1, 16, 2, 11, 4, 7})
	if q1 != 2 || med != 7 || q3 != 16 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || med != 2.5 || q3 != 3.75 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func TestFastestMeanIsTheMeanOfTheFastestEighth(t *testing.T) {
	for _, c := range []struct {
		samples []float64
		want    float64
	}{
		{[]float64{3}, 3},
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 1},                                    // 8 samples: the minimum
		{[]float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 1.5},                               // 9: the fastest two
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, 2}, // 17: the fastest three
	} {
		if got := fastestMean(c.samples); got != c.want {
			t.Errorf("fastestMean(%v) = %v, want %v", c.samples, got, c.want)
		}
	}
}
