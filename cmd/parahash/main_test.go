package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parahash"
	"parahash/internal/msp"
)

func TestRunProfile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.dbg")
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
		"-out", out, "-gpus", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"distinct vertices", "step 1", "step 2", "workload", "graph written"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := parahash.ReadGraph(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Error("written graph is empty")
	}
}

func TestRunFileInput(t *testing.T) {
	dir := t.TempDir()
	fastqPath := filepath.Join(dir, "in.fastq")
	d, err := parahash.GenerateDataset(parahash.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(fastqPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := parahash.WriteFASTQ(f, d.Reads); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run([]string{"-in", fastqPath, "-partitions", "8", "-threads", "4",
		"-filter", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "filtered") {
		t.Errorf("filter output missing:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                   // no input
		{"-profile", "nope"}, // bad profile
		{"-profile", "tiny", "-medium", "floppy"},
		{"-profile", "tiny", "-in", "x"}, // mutually exclusive
		{"-in", "/does/not/exist.fastq"},
		{"-profile", "tiny", "-k", "1"}, // bad config
	}
	for i, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	memPath := filepath.Join(dir, "mem.pprof")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-partitions", "8", "-threads", "4",
		"-gpus", "1",
		"-metrics-json", metricsPath,
		"-trace-out", tracePath,
		"-memprofile", memPath,
		"-cpuprofile", cpuPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"performance model", "predicted", "contention reduction",
		"metrics written", "trace written", "heap profile written"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}

	// Metrics file: parses, carries the schema, and has a plausible
	// contention-reduction figure (§III-C3's ≈0.8 on duplicated k-mers)
	// plus Eq. 1 predictions for both steps.
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var m parahash.BuildMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if m.Schema != "parahash.metrics/v1" {
		t.Errorf("schema = %q", m.Schema)
	}
	// The document renders the ratio; decoding reads the counters back.
	var rendered struct {
		HashTable struct {
			ContentionReduction float64 `json:"contention_reduction"`
		} `json:"hash_table"`
	}
	if err := json.Unmarshal(raw, &rendered); err != nil {
		t.Fatal(err)
	}
	if cr := rendered.HashTable.ContentionReduction; cr <= 0 || cr >= 1 || cr != m.HashTable.ContentionReduction() {
		t.Errorf("contention reduction = %g, want in (0,1) and %g from the counters", cr, m.HashTable.ContentionReduction())
	}
	if len(m.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(m.Steps))
	}
	for _, st := range m.Steps {
		if st.PredictedSeconds <= 0 {
			t.Errorf("step %s predicted seconds = %g, want > 0", st.Name, st.PredictedSeconds)
		}
		if st.MeasuredSeconds <= 0 {
			t.Errorf("step %s measured seconds = %g, want > 0", st.Name, st.MeasuredSeconds)
		}
		var measured int
		for _, p := range st.Processors {
			if p.BusySeconds < 0 {
				t.Errorf("step %s processor %s busy %g", st.Name, p.Name, p.BusySeconds)
			}
			measured += p.MeasuredPartitions
		}
		if measured != st.Partitions {
			t.Errorf("step %s measured partitions sum to %d, want %d", st.Name, measured, st.Partitions)
		}
	}
	// A fault-free run decodes exactly what was encoded, plus one integrity
	// footer per partition file (the written stat counts record bytes only).
	wantRead := m.MSP.EncodedBytesWritten + int64(m.Run.Partitions)*msp.FooterSize
	if m.MSP.EncodedBytesRead != wantRead {
		t.Errorf("decoded %d bytes, want %d (encoded %d + %d footers)",
			m.MSP.EncodedBytesRead, wantRead, m.MSP.EncodedBytesWritten, m.Run.Partitions)
	}

	// Trace file: valid Chrome trace JSON with one complete virtual-time
	// read/compute/write span per step2 partition.
	rawTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Args struct {
				Partition *int   `json:"partition"`
				Stage     string `json:"stage"`
				Clock     string `json:"clock"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rawTrace, &tr); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	step2Spans := map[string]map[int]int{} // stage -> partition -> count
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Cat != "step2" || e.Args.Clock != "virtual" {
			continue
		}
		if step2Spans[e.Args.Stage] == nil {
			step2Spans[e.Args.Stage] = map[int]int{}
		}
		if e.Args.Partition != nil {
			step2Spans[e.Args.Stage][*e.Args.Partition]++
		}
	}
	for _, stage := range []string{"read", "compute", "write"} {
		perPart := step2Spans[stage]
		if len(perPart) != 8 {
			t.Errorf("step2 %s spans cover %d partitions, want 8", stage, len(perPart))
		}
		for part, c := range perPart {
			if c != 1 {
				t.Errorf("step2 %s partition %d has %d virtual spans, want 1", stage, part, c)
			}
		}
	}

	if st, err := os.Stat(memPath); err != nil || st.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
	// The CPU profile is finalised when run returns: a gzip-framed protobuf.
	if cpu, err := os.ReadFile(cpuPath); err != nil || len(cpu) < 2 || cpu[0] != 0x1f || cpu[1] != 0x8b {
		t.Errorf("CPU profile missing, empty or not gzip-framed (err %v, %d bytes)", err, len(cpu))
	}
}

func TestRunPprofServer(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-partitions", "8", "-threads", "2",
		"-pprof-addr", "127.0.0.1:0"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pprof server listening on") {
		t.Errorf("output missing pprof banner:\n%s", buf.String())
	}
}

func TestRunHostCalibration(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-profile", "tiny", "-partitions", "8", "-threads", "2",
		"-host-calibration"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "virtual time") {
		t.Errorf("output:\n%s", buf.String())
	}
}
