package device

import (
	"context"
	"errors"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
	"parahash/internal/simulate"
)

func testReads(t testing.TB) []fastq.Read {
	t.Helper()
	d, err := simulate.Generate(simulate.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	return d.Reads
}

func gatherSuperkmers(t testing.TB, reads []fastq.Read, k, p int) []msp.Superkmer {
	t.Helper()
	var sks []msp.Superkmer
	for _, rd := range reads {
		sks = msp.SuperkmersFromRead(sks, rd.Bases, k, p)
	}
	return sks
}

func TestKindString(t *testing.T) {
	if KindCPU.String() != "CPU" || KindGPU.String() != "GPU" || Kind(0).String() != "unknown" {
		t.Error("Kind.String broken")
	}
}

func TestCPUAndGPUStep1Agree(t *testing.T) {
	reads := testReads(t)
	cpu := &CPU{Threads: 4}
	gpu := &GPU{Index: 0}

	a, err := cpu.Step1(context.Background(), reads, 27, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gpu.Step1(context.Background(), reads, 27, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Superkmers) != len(b.Superkmers) {
		t.Fatalf("superkmer counts differ: %d vs %d", len(a.Superkmers), len(b.Superkmers))
	}
	if a.Bases != b.Bases {
		t.Fatalf("base counts differ: %d vs %d", a.Bases, b.Bases)
	}
	for i := range a.Superkmers {
		if a.Superkmers[i].Minimizer != b.Superkmers[i].Minimizer ||
			len(a.Superkmers[i].Bases) != len(b.Superkmers[i].Bases) {
			t.Fatalf("superkmer %d differs between CPU and GPU", i)
		}
	}
	if a.TransferBytes != 0 {
		t.Error("CPU should not report transfer")
	}
	if b.TransferBytes != Step1TransferBytes(b.Bases, int64(len(b.Superkmers))) {
		t.Errorf("GPU transfer %d bytes, want %d", b.TransferBytes, Step1TransferBytes(b.Bases, int64(len(b.Superkmers))))
	}
}

func TestCPUAndGPUStep2ProduceIdenticalGraphs(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	slots := hashtable.SizeForKmers(int64(len(sks)*80), 2, 0.65)

	cpu := &CPU{Threads: 4}
	gpu := &GPU{Index: 1}

	a, err := cpu.Step2(context.Background(), sks, k, slots)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gpu.Step2(context.Background(), sks, k, slots)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("CPU and GPU built different graphs")
	}
	// Both must match the naive oracle.
	want := graph.BuildNaive(reads, k)
	if !a.Graph.Equal(want) {
		t.Fatal("device graph differs from naive reference")
	}
	if a.Kmers != b.Kmers || a.Kmers == 0 {
		t.Errorf("kmer counts: %d vs %d", a.Kmers, b.Kmers)
	}
	if a.Distinct != int64(want.NumVertices()) {
		t.Errorf("distinct = %d, want %d", a.Distinct, want.NumVertices())
	}
}

func TestGPUStep2Accounting(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	gpu := &GPU{}
	out, err := gpu.Step2(context.Background(), sks, k, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	// The encoded partition down, the subgraph (at the model's width) up.
	if want := encodedBytes(sks) + graph.ModelBytes(out.Graph.NumVertices()); out.TransferBytes != want {
		t.Errorf("transfer %d bytes, want %d", out.TransferBytes, want)
	}
	if out.WarpDivergence < 1 {
		t.Errorf("warp divergence = %.3f, must be >= 1", out.WarpDivergence)
	}
	if out.Hash.Inserts != out.Distinct {
		t.Errorf("locked inserts %d != distinct %d", out.Hash.Inserts, out.Distinct)
	}
	if out.Hash.Updates != out.Kmers-out.Distinct {
		t.Errorf("lock-free updates %d, want %d", out.Hash.Updates, out.Kmers-out.Distinct)
	}
}

func TestCPUStep2ThreadCountInvariance(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	var prev *graph.Subgraph
	for _, threads := range []int{1, 2, 8} {
		cpu := &CPU{Threads: threads}
		out, err := cpu.Step2(context.Background(), sks, k, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !out.Graph.Equal(prev) {
			t.Fatalf("graph changed with %d threads", threads)
		}
		prev = out.Graph
	}
}

func TestCPUValidation(t *testing.T) {
	cpu := &CPU{Threads: 0}
	if _, err := cpu.Step1(context.Background(), nil, 27, 11); err == nil {
		t.Error("threads=0 accepted in Step1")
	}
	if _, err := cpu.Step2(context.Background(), nil, 27, 16); err == nil {
		t.Error("threads=0 accepted in Step2")
	}
}

func TestProcessorNames(t *testing.T) {
	cpu := &CPU{Threads: 1}
	if cpu.Name() != "CPU" || cpu.Kind() != KindCPU {
		t.Error("CPU identity broken")
	}
	gpu := &GPU{Index: 1}
	if gpu.Name() != "GPU1" || gpu.Kind() != KindGPU {
		t.Error("GPU identity broken")
	}
}

func TestEmptyPartition(t *testing.T) {
	cpu := &CPU{Threads: 2}
	out, err := cpu.Step2(context.Background(), nil, 27, 16)
	if err != nil {
		t.Fatal(err)
	}
	if out.Graph.NumVertices() != 0 || out.Kmers != 0 {
		t.Error("empty partition should build empty graph")
	}
	gpu := &GPU{}
	gout, err := gpu.Step2(context.Background(), nil, 27, 16)
	if err != nil {
		t.Fatal(err)
	}
	if gout.Graph.NumVertices() != 0 || gout.WarpDivergence != 0 {
		t.Error("empty GPU partition should be empty with no divergence")
	}
}

func TestGPUDeviceMemoryLimit(t *testing.T) {
	reads := testReads(t)
	sks := gatherSuperkmers(t, reads, 27, 11)
	gpu := &GPU{MemoryBytes: 1024}
	_, err := gpu.Step2(context.Background(), sks, 27, 1<<16)
	if !errors.Is(err, ErrDeviceMemory) {
		t.Fatalf("expected ErrDeviceMemory, got %v", err)
	}
	// A sufficient budget succeeds.
	gpu.MemoryBytes = 1 << 30
	if _, err := gpu.Step2(context.Background(), sks, 27, 1<<16); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateHost(t *testing.T) {
	if raceEnabled {
		t.Skip("host calibration measures wall-clock throughput; race instrumentation makes the plausibility floors meaningless")
	}
	cal := CalibrateHost(4)
	if err := cal.Validate(); err != nil {
		t.Fatal(err)
	}
	if cal.CPUThreads != 4 {
		t.Errorf("threads = %d", cal.CPUThreads)
	}
	// Measured throughputs must be sane: a modern CPU scans at least a few
	// Mbases/s and hashes at least a few hundred k kmers/s per thread.
	if cal.CPUThreadStep1BasesPerSec < 1e6 {
		t.Errorf("implausible Step1 throughput %.0f bases/s", cal.CPUThreadStep1BasesPerSec)
	}
	if cal.CPUThreadStep2KmersPerSec < 1e5 {
		t.Errorf("implausible Step2 throughput %.0f kmers/s", cal.CPUThreadStep2KmersPerSec)
	}
	// GPU constants keep the paper's relative speeds.
	ref := costmodel.DefaultCalibration()
	wantRatio := ref.GPUStep2KmersPerSec / ref.CPUThreadStep2KmersPerSec
	gotRatio := cal.GPUStep2KmersPerSec / cal.CPUThreadStep2KmersPerSec
	if gotRatio < wantRatio*0.99 || gotRatio > wantRatio*1.01 {
		t.Errorf("GPU/CPU ratio drifted: %.2f vs %.2f", gotRatio, wantRatio)
	}
	if CalibrateHost(0).CPUThreads != 1 {
		t.Error("threads floor broken")
	}
}
