package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/hashtable"
	"parahash/internal/manifest"
	"parahash/internal/msp"
)

// freshPerCall is a processor that builds every partition on a brand-new
// device, i.e. in a freshly allocated table: the behaviour before tables
// were recycled, kept here as the reference.
type freshPerCall struct {
	device.Processor
	fresh func() device.Processor
}

func (p freshPerCall) Step2(ctx context.Context, sks []msp.Superkmer, k, slots int) (device.Step2Output, error) {
	return p.fresh().Step2(ctx, sks, k, slots)
}

func (p freshPerCall) Step1(ctx context.Context, reads []fastq.Read, k, pl int) (device.Step1Output, error) {
	return p.fresh().Step1(ctx, reads, k, pl)
}

func graphBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Graph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecycledTablesMatchFreshTables builds with the processors' tables
// recycled from partition to partition and with a fresh device per
// partition: graph bytes and every hash counter must agree, on each backend
// and on both processor kinds. One thread per device, so probe counts are a
// function of the table alone.
func TestRecycledTablesMatchFreshTables(t *testing.T) {
	reads := tinyReads(t)
	for _, backend := range hashtable.Backends() {
		for _, gpus := range []int{0, 1} {
			cfg := tinyConfig()
			cfg.TableBackend = string(backend)
			cfg.CPUThreads = 1
			cfg.NumGPUs = gpus
			cfg.UseCPU = gpus == 0
			recycled, err := Build(reads, cfg)
			if err != nil {
				t.Fatalf("%s gpus=%d: %v", backend, gpus, err)
			}
			cfg.ProcWrap = func(procs []device.Processor) []device.Processor {
				for i := range procs {
					i := i
					procs[i] = freshPerCall{Processor: procs[i], fresh: func() device.Processor {
						unwrapped := cfg
						unwrapped.ProcWrap = nil
						return processors(unwrapped)[i]
					}}
				}
				return procs
			}
			fresh, err := Build(reads, cfg)
			if err != nil {
				t.Fatalf("%s gpus=%d, fresh tables: %v", backend, gpus, err)
			}
			if !bytes.Equal(graphBytes(t, recycled), graphBytes(t, fresh)) {
				t.Fatalf("%s gpus=%d: graph built in recycled tables differs from the one built in fresh tables", backend, gpus)
			}
			if recycled.Stats.Hash != fresh.Stats.Hash {
				t.Fatalf("%s gpus=%d: hash counters %+v with recycled tables, %+v with fresh ones", backend, gpus, recycled.Stats.Hash, fresh.Stats.Hash)
			}
			if recycled.Stats.Hash.Inserts == 0 || recycled.Stats.Hash.Probes == 0 {
				t.Fatalf("%s gpus=%d: no hash work recorded: %+v", backend, gpus, recycled.Stats.Hash)
			}
		}
	}
}

// TestAbandonedAttemptDoesNotDisturbRecycling wedges Step 2 calls of the
// build's only processor until the watchdog abandons them. Each abandoned
// kernel then winds down on the same device — and over the same loaded
// partition — the retry is already running on, while the write stage gives
// vertex buffers and write blocks back for the partitions behind it. Run
// under the race detector, this is the check that an abandoned attempt never
// shares a table with, or hands one to, a live attempt, and that nothing it
// may still read is recycled under it; the graph and the work counters must
// be those of an undisturbed build, whether or not the graph is kept.
func TestAbandonedAttemptDoesNotDisturbRecycling(t *testing.T) {
	reads := tinyReads(t)
	for _, backend := range hashtable.Backends() {
		for _, keep := range []bool{true, false} {
			cfg := tinyConfig()
			cfg.TableBackend = string(backend)
			cfg.CPUThreads = 1
			cfg.NumGPUs = 0
			cfg.KeepSubgraphs = keep
			calm, err := Build(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Resilience.MaxAttempts = 4
			cfg.Resilience.QuarantineAfter = 0
			// Long enough that no honest attempt outlives it on a loaded host
			// under the race detector: exactly the wedged calls are killed.
			cfg.Resilience.PartitionDeadline = 250 * time.Millisecond
			plan := faultinject.Plan{ProcessorFaults: []faultinject.ProcessorFault{
				{Proc: 0, HangStep2Calls: []int{1, 2, 7, 12}},
			}}
			cfg.ProcWrap = plan.WrapProcessors
			wedged, err := Build(reads, cfg)
			if err != nil {
				t.Fatalf("%s keep=%v: build with wedged attempts failed: %v", backend, keep, err)
			}
			if got := wedged.Stats.Step2.WatchdogKills; got != 4 {
				t.Fatalf("%s keep=%v: %d watchdog kills, want 4", backend, keep, got)
			}
			if !bytes.Equal(writtenGraph(t, wedged), writtenGraph(t, calm)) {
				t.Fatalf("%s keep=%v: graph differs after abandoned attempts", backend, keep)
			}
			if wedged.Stats.Hash != calm.Stats.Hash {
				t.Fatalf("%s keep=%v: hash counters %+v after abandoned attempts, %+v without", backend, keep, wedged.Stats.Hash, calm.Stats.Hash)
			}
		}
	}
}

// TestDistWorkerRecyclesAcrossPartitions drives one DistWorker — one
// processor, one recycled table — over every partition of a finished
// checkpointed build: each fenced file must be byte-identical to the subgraph
// the single-process build published, with the distinct count it journalled.
func TestDistWorkerRecyclesAcrossPartitions(t *testing.T) {
	reads := tinyReads(t)
	for _, backend := range hashtable.Backends() {
		cfg, dir := ckConfig(t)
		cfg.TableBackend = string(backend)
		cfg.CPUThreads = 1
		buildCheckpointed(t, reads, cfg)
		m, err := manifest.Load(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewDistWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := w.proc
		for i := 0; i < cfg.NumPartitions; i++ {
			out, err := w.Construct(context.Background(), i, FencedName(i, 1))
			if err != nil {
				t.Fatalf("%s: partition %d: %v", backend, i, err)
			}
			got, err := os.ReadFile(dataFile(dir, out.Name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(dataFile(dir, subgraphFile(i)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: worker's partition %d differs from the single-process build's", backend, i)
			}
			if rec := m.Step2For(i); rec == nil || rec.Distinct != out.Distinct {
				t.Fatalf("%s: partition %d distinct %d, manifest says %+v", backend, i, out.Distinct, rec)
			}
		}
		if w.proc != first {
			t.Fatalf("%s: the worker changed processors between partitions", backend)
		}
	}
	if _, err := NewDistWorker(tinyConfig()); err == nil {
		t.Fatal("a worker without a checkpoint directory was accepted")
	}
}
