package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/iosim"
	"parahash/internal/msp"
	"parahash/internal/obs"
	"parahash/internal/simulate"
)

func tinyReads(t testing.TB) []fastq.Read {
	t.Helper()
	d, err := simulate.Generate(simulate.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	return d.Reads
}

// distinctSuperkmerKmers counts the k-mers Step 2 walks: those of each
// partition's distinct superkmers, a repeated one counted once.
func distinctSuperkmerKmers(reads []fastq.Read, cfg Config) int64 {
	sc := msp.Scanner{K: cfg.K, P: cfg.P, NumPartitions: cfg.NumPartitions}
	seen := make(map[string]bool)
	var kmers int64
	var sks []msp.Superkmer
	for _, rd := range reads {
		sks = sc.Superkmers(sks[:0], rd.Bases)
		for _, sk := range sks {
			if key := fmt.Sprint(sk.Part, sk); !seen[key] {
				seen[key] = true
				kmers += int64(sk.NumKmers(cfg.K))
			}
		}
	}
	return kmers
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPartitions = 16
	cfg.CPUThreads = 4
	return cfg
}

func TestBuildMatchesNaiveReference(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.BuildNaive(reads, cfg.K)
	if !res.Graph.Equal(want) {
		t.Fatalf("ParaHash graph differs from naive: %d vs %d vertices",
			res.Graph.NumVertices(), want.NumVertices())
	}
}

func TestBuildProcessorConfigsAllAgree(t *testing.T) {
	reads := tinyReads(t)
	want := graph.BuildNaive(reads, 27)
	for _, tc := range []struct {
		name    string
		useCPU  bool
		numGPUs int
	}{
		{"CPU-only", true, 0},
		{"2GPU-only", false, 2},
		{"CPU+1GPU", true, 1},
		{"CPU+2GPU", true, 2},
	} {
		cfg := tinyConfig()
		cfg.UseCPU = tc.useCPU
		cfg.NumGPUs = tc.numGPUs
		res, err := Build(reads, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Graph.Equal(want) {
			t.Fatalf("%s: graph differs from reference", tc.name)
		}
	}
}

func TestBuildStats(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.DistinctVertices != int64(res.Graph.NumVertices()) {
		t.Errorf("distinct = %d, graph has %d", s.DistinctVertices, res.Graph.NumVertices())
	}
	wantKmers := int64(fastq.CountKmers(reads, cfg.K))
	if s.TotalKmers != wantKmers {
		t.Errorf("total kmers = %d, want %d", s.TotalKmers, wantKmers)
	}
	if s.DuplicateVertices != wantKmers-s.DistinctVertices {
		t.Errorf("duplicates = %d", s.DuplicateVertices)
	}
	if s.TotalSeconds <= 0 || s.Step1.Seconds <= 0 || s.Step2.Seconds <= 0 {
		t.Error("virtual time not charged")
	}
	if math.Abs(s.TotalSeconds-(s.Step1.Seconds+s.Step2.Seconds)) > 1e-9 {
		t.Error("total != step1 + step2")
	}
	if s.PeakMemoryBytes <= 0 {
		t.Error("peak memory not tracked")
	}
	if s.Step2.Partitions != cfg.NumPartitions {
		t.Errorf("step2 partitions = %d, want %d", s.Step2.Partitions, cfg.NumPartitions)
	}
}

func TestBuildDeterministicTiming(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	a, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.TotalSeconds != b.Stats.TotalSeconds {
		t.Errorf("virtual timing not deterministic: %f vs %f",
			a.Stats.TotalSeconds, b.Stats.TotalSeconds)
	}
}

func TestBuildMorePartitionsSameGraph(t *testing.T) {
	reads := tinyReads(t)
	var prev *graph.Subgraph
	for _, np := range []int{1, 4, 32} {
		cfg := tinyConfig()
		cfg.NumPartitions = np
		res, err := Build(reads, cfg)
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if prev != nil && !res.Graph.Equal(prev) {
			t.Fatalf("graph changed with np=%d", np)
		}
		prev = res.Graph
	}
}

func TestBuildCoprocessingFasterThanSolo(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.NumGPUs = 0
	solo, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumGPUs = 2
	duo, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if duo.Stats.TotalSeconds >= solo.Stats.TotalSeconds {
		t.Errorf("co-processing (%.4fs) not faster than CPU-only (%.4fs)",
			duo.Stats.TotalSeconds, solo.Stats.TotalSeconds)
	}
}

func TestBuildDiskSlowerThanMemCached(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.Medium = costmodel.MediumMemCached
	mem, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Medium = costmodel.MediumDisk
	disk, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Stats.TotalSeconds <= mem.Stats.TotalSeconds {
		t.Errorf("disk (%.4fs) should be slower than mem-cached (%.4fs)",
			disk.Stats.TotalSeconds, mem.Stats.TotalSeconds)
	}
}

func TestBuildPipeliningBeatsSequentialStages(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.Medium = costmodel.MediumDisk
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range []StepStats{res.Stats.Step1, res.Stats.Step2} {
		if st.Seconds >= st.NonPipelinedSeconds {
			t.Errorf("step %d: pipelined %.4f >= sequential %.4f", i+1, st.Seconds, st.NonPipelinedSeconds)
		}
	}
}

func TestBuildWorkloadShares(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.NumPartitions = 64
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shares := res.Stats.Step2.WorkloadShares()
	ideal := res.Stats.Step2.IdealShares()
	if len(shares) != cfg.NumProcessors() || len(ideal) != cfg.NumProcessors() {
		t.Fatal("share arity wrong")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %f", sum)
	}
}

func TestBuildValidation(t *testing.T) {
	reads := tinyReads(t)
	bad := []func(*Config){
		func(c *Config) { c.K = 1 },
		func(c *Config) { c.K = 64 },
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.P = c.K + 1 },
		func(c *Config) { c.NumPartitions = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.UseCPU = false; c.NumGPUs = 0 },
		func(c *Config) { c.CPUThreads = 0 },
		func(c *Config) { c.NumGPUs = -1 },
		func(c *Config) { c.Medium = 0 },
		func(c *Config) { c.Calibration.PCIeBytesPerSec = 0 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig()
		mutate(&cfg)
		if _, err := Build(reads, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Unusable input.
	cfg := tinyConfig()
	if _, err := Build(nil, cfg); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBuildWithoutKeepingSubgraphs(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.KeepSubgraphs = false
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Error("a graph was decoded despite KeepSubgraphs=false")
	}
	if res.Stats.DistinctVertices == 0 {
		t.Error("stats missing in size-only mode")
	}
}

func TestBuildLowCoverageTriggersResizePath(t *testing.T) {
	// Coverage ~1x makes nearly every kmer distinct, so Property 1's
	// ~0.77·N_kmer sizing can under-provision a partition; the resize
	// fallback must still produce a correct graph.
	p := simulate.Profile{
		Name: "lowcov", GenomeSize: 20000, ReadLength: 80, NumReads: 260,
		ErrorLambda: 0.5, Seed: 7,
	}
	d, err := simulate.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.NumPartitions = 4
	res, err := Build(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(graph.BuildNaive(d.Reads, cfg.K)) {
		t.Fatal("low-coverage graph differs from reference")
	}
}

func TestNumProcessors(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumProcessors() != 3 {
		t.Errorf("default processors = %d, want 3", cfg.NumProcessors())
	}
	cfg.UseCPU = false
	if cfg.NumProcessors() != 2 {
		t.Errorf("GPU-only processors = %d, want 2", cfg.NumProcessors())
	}
}

func TestBuildGPUMemoryLimit(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.UseCPU = false
	cfg.NumGPUs = 1
	cfg.NumPartitions = 1 // one huge partition
	cfg.GPUMemoryBytes = 1024
	if _, err := Build(reads, cfg); err == nil {
		t.Fatal("expected device-memory failure for a partition larger than GPU memory")
	}
	// Enough partitions (or memory) succeeds.
	cfg.GPUMemoryBytes = 1 << 30
	if _, err := Build(reads, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuildFromReaderMatchesBuild(t *testing.T) {
	reads := tinyReads(t)
	var buf bytes.Buffer
	if err := fastq.WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	streamed, err := BuildFromReader(&buf, cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Graph.Equal(inMemory.Graph) {
		t.Fatal("streamed construction differs from in-memory construction")
	}
	if streamed.Stats.TotalKmers != inMemory.Stats.TotalKmers {
		t.Errorf("kmer accounting differs: %d vs %d",
			streamed.Stats.TotalKmers, inMemory.Stats.TotalKmers)
	}
	if streamed.Stats.Step1.Partitions < 2 {
		t.Errorf("expected multiple streamed chunks, got %d", streamed.Stats.Step1.Partitions)
	}
}

func TestBuildFromReaderGzip(t *testing.T) {
	reads := tinyReads(t)
	var buf bytes.Buffer
	if err := fastq.WriteFASTQGzip(&buf, reads[:200]); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	res, err := BuildFromReader(&buf, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.BuildNaive(reads[:200], cfg.K)
	if !res.Graph.Equal(want) {
		t.Fatal("gzip-streamed graph differs from reference")
	}
}

func TestBuildFromReaderEmpty(t *testing.T) {
	if _, err := BuildFromReader(bytes.NewReader(nil), tinyConfig(), 0); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestBuildFromReaderBadConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 1
	if _, err := BuildFromReader(bytes.NewReader(nil), cfg, 0); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestBuildSurfacesWriteFaults(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	store := faultinject.WrapStore(iosim.NewStore())
	boom := errors.New("injected write failure")
	store.FailWritesOn(superkmerFile(3), boom)
	if _, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil); !errors.Is(err, boom) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
}

func TestBuildSurfacesReadFaults(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	store := faultinject.WrapStore(iosim.NewStore())
	boom := errors.New("injected read failure")
	store.FailReadsOn(superkmerFile(5), boom)
	if _, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil); !errors.Is(err, boom) {
		t.Fatalf("read fault not surfaced: %v", err)
	}
}

func TestBuildSurfacesSubgraphWriteFaults(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	store := faultinject.WrapStore(iosim.NewStore())
	boom := errors.New("injected subgraph write failure")
	store.FailWritesOn(subgraphFile(2), boom)
	if _, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil); !errors.Is(err, boom) {
		t.Fatalf("subgraph write fault not surfaced: %v", err)
	}
}

func TestBuildObservability(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.Trace = obs.NewTrace()
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Hash counters must aggregate across partitions: every k-mer of a
	// distinct superkmer is one table operation, an insert or an update;
	// repeated superkmers are folded into a weight, not walked again. (The
	// paper's ~0.8 contention reduction counts every k-mer instance; the
	// contention experiment, fed unfolded Step 1 output, reproduces it.)
	h := res.Stats.Hash
	if want := distinctSuperkmerKmers(reads, cfg); h.Inserts+h.Updates != want || want >= res.Stats.TotalKmers {
		t.Errorf("inserts+updates = %d, want %d k-mers of distinct superkmers (of %d in all)", h.Inserts+h.Updates, want, res.Stats.TotalKmers)
	}
	if h.Inserts != res.Stats.DistinctVertices {
		t.Errorf("inserts = %d, want %d distinct vertices", h.Inserts, res.Stats.DistinctVertices)
	}
	if cr := h.ContentionReduction(); cr <= 0 || cr >= 1 {
		t.Errorf("contention reduction = %.2f, want in (0,1)", cr)
	}
	if h.Probes < h.Inserts+h.Updates {
		t.Errorf("probes = %d below access count %d", h.Probes, h.Inserts+h.Updates)
	}
	if res.Stats.DecodedBytes <= res.Stats.Superkmers.TotalEncoded {
		t.Errorf("decoded bytes = %d, want > encoded %d (footers included)",
			res.Stats.DecodedBytes, res.Stats.Superkmers.TotalEncoded)
	}

	// Eq. 1 predictions exist for both steps and are near the simulated
	// elapsed time (same scheduling inputs, coarser aggregation).
	for _, st := range []StepStats{res.Stats.Step1, res.Stats.Step2} {
		if st.PredictedSeconds <= 0 {
			t.Errorf("predicted seconds = %g, want > 0", st.PredictedSeconds)
		}
		if st.PredictedCoprocessingSeconds <= 0 {
			t.Errorf("predicted co-processing seconds = %g, want > 0", st.PredictedCoprocessingSeconds)
		}
		if math.Abs(st.ModelErrorPct()) > 50 {
			t.Errorf("model error %.1f%% implausibly large (predicted %g, measured %g)",
				st.ModelErrorPct(), st.PredictedSeconds, st.Seconds)
		}
		var measured int
		for _, n := range st.MeasuredProcessorParts {
			measured += n
		}
		if measured != st.Partitions {
			t.Errorf("measured partition attribution sums to %d, want %d", measured, st.Partitions)
		}
	}

	// The trace carries wall spans from the live run and virtual spans from
	// the schedule, for both steps.
	kinds := map[string]int{}
	for _, s := range cfg.Trace.Spans() {
		kinds[s.Step+"/"+s.Clock]++
	}
	for _, want := range []string{"step1/wall", "step1/virtual", "step2/wall", "step2/virtual"} {
		if kinds[want] == 0 {
			t.Errorf("no %s spans recorded (have %v)", want, kinds)
		}
	}
	// Virtual spans: exactly one read/compute/write triple per partition.
	if got, want := kinds["step2/virtual"], 3*cfg.NumPartitions; got != want {
		t.Errorf("step2 virtual spans = %d, want %d", got, want)
	}

	m := MetricsOf(res, cfg)
	if m.Schema != MetricsSchema {
		t.Errorf("schema = %q", m.Schema)
	}
	if m.HashTable != h {
		t.Error("document hash counters disagree with stats")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"contention_reduction"`)) {
		t.Error("serialised metrics missing contention_reduction")
	}
}
