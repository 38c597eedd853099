package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/iosim"
	"parahash/internal/msp"
	"parahash/internal/pipeline"
)

// serializeGraph renders a merged graph to its canonical byte form.
func serializeGraph(t *testing.T, g *graph.Subgraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildDegradedMatchesFaultFree is the PR's acceptance scenario: one of
// two processors dies after its second partition and two partition reads
// fail transiently, yet the build must succeed, produce a byte-identical
// graph to the fault-free run, and report the degradation in its stats.
func TestBuildDegradedMatchesFaultFree(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.NumGPUs = 1 // CPU (proc 0) + GPU0 (proc 1)

	baseline, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serializeGraph(t, baseline.Graph)

	plan := faultinject.Plan{
		ReadFaults: []faultinject.StoreFault{
			{File: superkmerFile(3), Times: 1},
			{File: superkmerFile(9), Times: 1},
		},
		ProcessorFaults: []faultinject.ProcessorFault{
			{Proc: 1, DieAfter: 2}, // GPU0 drops out after its 2nd partition
		},
	}
	faulty := cfg
	faulty.ProcWrap = plan.WrapProcessors
	store := faultinject.WrapStore(iosim.NewStore())
	plan.ApplyStore(store)

	res, err := buildWithStore(context.Background(), sliceSource(reads, faulty), faulty, store, nil)
	if err != nil {
		t.Fatalf("degraded build failed: %v", err)
	}
	if !res.Graph.Equal(baseline.Graph) {
		t.Fatalf("degraded graph differs from fault-free: %d vs %d vertices",
			res.Graph.NumVertices(), baseline.Graph.NumVertices())
	}
	if got := serializeGraph(t, res.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("degraded graph serialisation is not byte-identical to the fault-free run")
	}

	s := res.Stats
	if !s.Degraded() {
		t.Fatal("stats do not report degraded mode")
	}
	// The two transient reads are retried in Step 2, and the dying GPU
	// burns at least one partition attempt per step before quarantine.
	if s.Step2.Retries < 2 {
		t.Errorf("step 2 retries = %d, want >= 2 (two transient read faults)", s.Step2.Retries)
	}
	if s.TotalRequeues() < 1 {
		t.Errorf("requeues = %d, want >= 1 (quarantine re-queues the GPU's partition)", s.TotalRequeues())
	}
	q := s.QuarantinedProcessors()
	found := false
	for _, name := range q {
		if name == "GPU0" {
			found = true
		}
	}
	if !found {
		t.Errorf("quarantined processors = %v, want GPU0", q)
	}
	if s.Step2.BackoffSeconds <= 0 {
		t.Errorf("step 2 backoff = %v, want > 0", s.Step2.BackoffSeconds)
	}

	// Determinism of the degraded run itself: same plan, same graph.
	store2 := faultinject.WrapStore(iosim.NewStore())
	plan.ApplyStore(store2)
	res2, err := buildWithStore(context.Background(), sliceSource(reads, faulty), faulty, store2, nil)
	if err != nil {
		t.Fatalf("second degraded build failed: %v", err)
	}
	if got := serializeGraph(t, res2.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("degraded build is not deterministic")
	}
}

func TestBuildRecoversTransientWriteFault(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	baseline, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	store := faultinject.WrapStore(iosim.NewStore())
	boom := errors.New("transient subgraph write failure")
	// Subgraph writes are idempotent (Create truncates), so a transient
	// write fault must be absorbed by a retry.
	store.FailWritesNTimes(subgraphFile(2), 1, boom)
	res, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil)
	if err != nil {
		t.Fatalf("transient write fault not recovered: %v", err)
	}
	if !res.Graph.Equal(baseline.Graph) {
		t.Fatal("recovered graph differs from fault-free run")
	}
	if res.Stats.Step2.Retries < 1 {
		t.Errorf("step 2 retries = %d, want >= 1", res.Stats.Step2.Retries)
	}
}

func TestBuildRecoversCorruptPartitionRead(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	baseline, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	store := faultinject.WrapStore(iosim.NewStore())
	// The first read of partition 1 serves bit-flipped bytes. The CRC32
	// footer must catch the corruption and the retry — served from the
	// intact stored bytes — must recover, end to end.
	store.CorruptReadsNTimes(superkmerFile(1), 1)
	res, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil)
	if err != nil {
		t.Fatalf("corrupt read not recovered: %v", err)
	}
	if !res.Graph.Equal(baseline.Graph) {
		t.Fatal("recovered graph differs from fault-free run")
	}
	if res.Stats.Step2.Retries < 1 {
		t.Errorf("step 2 retries = %d, want >= 1", res.Stats.Step2.Retries)
	}
}

func TestBuildPersistentCorruptionSurfacesTyped(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	store := faultinject.WrapStore(iosim.NewStore())
	store.CorruptReadsNTimes(superkmerFile(4), -1) // every read corrupt
	_, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil)
	if !errors.Is(err, msp.ErrCorruptPartition) {
		t.Fatalf("persistent corruption not surfaced as ErrCorruptPartition: %v", err)
	}
}

func TestBuildAllProcessorsDead(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cfg.UseCPU = false
	cfg.NumGPUs = 2
	plan := faultinject.Plan{
		ProcessorFaults: []faultinject.ProcessorFault{
			{Proc: 0, DeadOnArrival: true},
			{Proc: 1, DeadOnArrival: true},
		},
	}
	cfg.ProcWrap = plan.WrapProcessors
	_, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, iosim.NewStore(), nil)
	if !errors.Is(err, pipeline.ErrNoHealthyWorkers) {
		t.Fatalf("expected ErrNoHealthyWorkers, got: %v", err)
	}
	if !errors.Is(err, faultinject.ErrProcessorDead) {
		t.Fatalf("aggregated error lost the device fault: %v", err)
	}
}

func TestBuildMissingPartitionFailsFast(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	store := iosim.NewStore()
	// Deleting a partition between the steps models an unrecoverable
	// loss: ErrNotFound is classified non-retryable, so the build must
	// not burn its attempt budget re-reading a file that cannot appear.
	_, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	store2 := faultinject.WrapStore(iosim.NewStore())
	store2.FailReadsOn(superkmerFile(0), iosim.ErrNotFound)
	if _, err := buildWithStore(context.Background(), sliceSource(reads, cfg), cfg, store2, nil); !errors.Is(err, iosim.ErrNotFound) {
		t.Fatalf("missing partition not surfaced: %v", err)
	}
}

// tableFullProc always reports a full hash table, driving the resize loop.
type tableFullProc struct{}

func (tableFullProc) Name() string      { return "full" }
func (tableFullProc) Kind() device.Kind { return device.KindCPU }
func (tableFullProc) Step1(_ context.Context, reads []fastq.Read, k, p int) (device.Step1Output, error) {
	return device.Step1Output{}, nil
}
func (tableFullProc) Step2(_ context.Context, sks []msp.Superkmer, k, tableSlots int) (device.Step2Output, error) {
	return device.Step2Output{}, hashtable.ErrTableFull
}

func TestStep2ConstructResizeExhausted(t *testing.T) {
	cfg := tinyConfig()
	sks := []msp.Superkmer{{Bases: tinyReads(t)[0].Bases}}
	_, err := step2Construct(context.Background(), tableFullProc{}, sks, int64(sks[0].NumKmers(cfg.K)), cfg)
	if !errors.Is(err, ErrResizeExhausted) {
		t.Fatalf("unbounded resize not capped: %v", err)
	}
}
