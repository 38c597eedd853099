package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
)

// step1Entry is one of the two ways reads reach Step 1.
type step1Entry struct {
	name  string
	build func(reads []fastq.Read, cfg Config) (*Result, error)
}

var step1Entries = []step1Entry{
	{"slice", Build},
	{"reader", func(reads []fastq.Read, cfg Config) (*Result, error) {
		var buf bytes.Buffer
		if err := fastq.WriteFASTQ(&buf, reads); err != nil {
			return nil, err
		}
		return BuildFromReader(&buf, cfg, 0)
	}},
}

// TestStep1RejectsInputWithoutKmers is the one input rule of both entry
// points: an input that yields no k-mer — no reads, or none as long as K — is
// rejected with ErrNoUsableReads before Step 1 journals anything, so resuming
// the failed build fails the same way; one usable read is enough to build,
// and to resume.
func TestStep1RejectsInputWithoutKmers(t *testing.T) {
	usable := tinyReads(t)[:1]
	short := []fastq.Read{{ID: "a", Bases: usable[0].Bases[:10]}, {ID: "b", Bases: usable[0].Bases[:26]}}
	inputs := []struct {
		name  string
		reads []fastq.Read
		ok    bool
	}{
		{"empty", nil, false},
		{"all-short", short, false},
		{"one usable read", append(append([]fastq.Read(nil), short...), usable...), true},
	}
	for _, entry := range step1Entries {
		for _, in := range inputs {
			for _, checkpointed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/checkpoint=%v", entry.name, in.name, checkpointed)
				t.Run(name, func(t *testing.T) {
					cfg := tinyConfig()
					if checkpointed {
						cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), InputLabel: "test:" + in.name}
					}
					// Fresh, then — with a checkpoint — the same build resumed.
					resumes := []bool{false}
					if checkpointed {
						resumes = append(resumes, true)
					}
					for _, resume := range resumes {
						cfg.Checkpoint.Resume = resume
						res, err := entry.build(in.reads, cfg)
						if !in.ok {
							if !errors.Is(err, ErrNoUsableReads) {
								t.Fatalf("resume=%v: error %v, want ErrNoUsableReads", resume, err)
							}
							if checkpointed {
								m, err := manifest.Load(filepath.Join(cfg.Checkpoint.Dir, "manifest.json"))
								if err != nil {
									t.Fatal(err)
								}
								if m.Step1Done || len(m.Step1) != 0 {
									t.Fatalf("resume=%v: the rejected input's Step 1 was journalled: %+v", resume, m.Step1)
								}
							}
							continue
						}
						if err != nil {
							t.Fatalf("resume=%v: %v", resume, err)
						}
						if want := graph.BuildNaive(in.reads, cfg.K); !res.Graph.Equal(want) {
							t.Fatalf("resume=%v: graph has %d vertices, the reference %d", resume, res.Graph.NumVertices(), want.NumVertices())
						}
						if resume && res.Stats.ResumedPartitions != cfg.NumPartitions {
							t.Fatalf("the resumed build redid %d partitions", cfg.NumPartitions-res.Stats.ResumedPartitions)
						}
					}
				})
			}
		}
	}
}

// TestPeakMemoryCountsLargestChunk: both entry points count the largest input
// chunk Step 1 held toward the peak-memory estimate.
func TestPeakMemoryCountsLargestChunk(t *testing.T) {
	reads, input := streamReads(t, 4)
	cfg := tinyConfig()
	cfg.NumPartitions = 512 // tables far smaller than the input

	whole := fastq.ApproxFASTQBytes(reads)
	res, err := BuildFromReader(bytes.NewReader(input), cfg, 1<<30) // one chunk
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakMemoryBytes != whole {
		t.Fatalf("reader build: PeakMemoryBytes = %d, its one chunk was %d bytes", res.Stats.PeakMemoryBytes, whole)
	}

	var largest int64
	for src := sliceSource(reads, cfg); ; {
		chunk, err := src()
		if err != nil {
			break
		}
		if b := fastq.ApproxFASTQBytes(chunk); b > largest {
			largest = b
		}
	}
	if res, err = Build(reads, cfg); err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakMemoryBytes < largest {
		t.Fatalf("slice build: PeakMemoryBytes = %d, its largest chunk was %d bytes", res.Stats.PeakMemoryBytes, largest)
	}
}

// scriptedStep1 wraps a processor's Step 1 with a per-call script; everything
// else passes through.
type scriptedStep1 struct {
	device.Processor
	mu     sync.Mutex
	calls  int
	script func(ctx context.Context, call int) error // nil error: run the kernel
}

func (p *scriptedStep1) Step1(ctx context.Context, reads []fastq.Read, k, pLen int) (device.Step1Output, error) {
	p.mu.Lock()
	call := p.calls
	p.calls++
	p.mu.Unlock()
	if err := p.script(ctx, call); err != nil {
		return device.Step1Output{}, err
	}
	return p.Processor.Step1(ctx, reads, k, pLen)
}

// TestReaderBuildRecoversFaultedProcessorInStep1 fails, then hangs, one of two
// processors in the middle of a streamed Step 1: the chunk is retried, the
// watchdog abandons the hang, the processor is quarantined and the survivor
// finishes — same partition files, same graph, and the faults reported in
// Step1's stats the way Step 2 reports its own.
func TestReaderBuildRecoversFaultedProcessorInStep1(t *testing.T) {
	reads, input := streamReads(t, 4)
	cfg := tinyConfig()
	cfg.NumGPUs = 1 // CPU (proc 0) + GPU0 (proc 1)
	cfg.NumPartitions = 8
	cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), InputLabel: "test:stream"}
	reference := buildCheckpointed(t, reads, cfg)
	wantGraph := serializeGraph(t, reference.Graph)
	wantFiles, wantClaims := step1Artifacts(t, cfg.Checkpoint.Dir, cfg.NumPartitions)

	cfg.Checkpoint.Dir = t.TempDir()
	cfg.Resilience.PartitionDeadline = 400 * time.Millisecond // far above a chunk or partition under -race
	kernelFault := errors.New("kernel fault")
	gpuWedged := make(chan struct{})
	var once sync.Once
	cfg.ProcWrap = func(procs []device.Processor) []device.Processor {
		// The CPU's first chunk waits until GPU0 has run one chunk, failed
		// the next and wedged on a third — the only idle processor takes
		// them all — so the script below runs however the two race for the
		// queue and however the host schedules them.
		cpu := &scriptedStep1{Processor: procs[0], script: func(ctx context.Context, call int) error {
			if call == 0 {
				select {
				case <-gpuWedged:
				case <-ctx.Done():
				}
			}
			return nil
		}}
		gpu := &scriptedStep1{Processor: procs[1], script: func(ctx context.Context, call int) error {
			switch call {
			case 0:
				return nil
			case 1:
				return kernelFault
			}
			once.Do(func() { close(gpuWedged) })
			<-ctx.Done() // wedged from its third chunk on
			return ctx.Err()
		}}
		return []device.Processor{cpu, gpu}
	}

	res, err := BuildFromReader(bytes.NewReader(input), cfg, 8<<10)
	if err != nil {
		t.Fatalf("the build did not survive the faulted processor: %v", err)
	}
	s1 := res.Stats.Step1
	if s1.Retries < 1 || s1.WatchdogKills < 1 || s1.Requeues < 1 || len(s1.Quarantined) != 1 || s1.Quarantined[0] != "GPU0" {
		t.Fatalf("Step 1 reports retries=%d watchdog kills=%d requeues=%d quarantined=%v", s1.Retries, s1.WatchdogKills, s1.Requeues, s1.Quarantined)
	}
	if !res.Stats.Degraded() || s1.MeasuredProcessorParts[1] != 1 {
		t.Fatalf("degraded=%v, GPU0 produced %d chunks, want the one before its faults", res.Stats.Degraded(), s1.MeasuredProcessorParts[1])
	}
	sameStep1Artifacts(t, "faulted build", cfg.Checkpoint.Dir, wantFiles, wantClaims)
	if !bytes.Equal(serializeGraph(t, res.Graph), wantGraph) {
		t.Fatal("graph differs from the fault-free build's")
	}
}

// TestStreamedStep1HoldsBoundedChunks reads the trace of a streamed build for
// the most chunks that were, at any moment, taken from the source and not yet
// encoded. The bound is the runtime's — its read-ahead, as many outputs again
// waiting for the encoder, and the one being encoded — and it is the same for
// an input ten times as long.
func TestStreamedStep1HoldsBoundedChunks(t *testing.T) {
	const chunkBases = 16 << 10
	for _, scale := range []float64{2, 20} {
		_, input := streamReads(t, scale)
		cfg := tinyConfig()
		cfg.NumGPUs = 1
		cfg.Trace = obs.NewTrace()
		res, err := BuildFromReader(bytes.NewReader(input), cfg, chunkBases)
		if err != nil {
			t.Fatal(err)
		}
		chunks := res.Stats.Step1.Partitions
		taken := make([]float64, chunks)   // read span start
		encoded := make([]float64, chunks) // write span end
		for _, s := range cfg.Trace.Spans() {
			if s.Step != "step1" || s.Clock != obs.ClockWall {
				continue
			}
			switch s.Stage {
			case pipeline.StageRead:
				taken[s.Partition] = s.Start
			case pipeline.StageWrite:
				encoded[s.Partition] = s.End
			}
		}
		most := 0
		for i := range taken {
			held := 0
			for j := 0; j <= i; j++ {
				if encoded[j] > taken[i] {
					held++
				}
			}
			if held > most {
				most = held
			}
		}
		workers := cfg.NumProcessors()
		if bound := 2*(workers+1) + 1; most > bound || most < 1 {
			t.Fatalf("%d chunks of input: %d were held at once, the bound is %d", chunks, most, bound)
		}
		t.Logf("%d chunks of input: at most %d held at once", chunks, most)
	}
}
