package device

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/iosim"
)

func externalTestConfig(st *iosim.Store, k int, bufferBytes int64) ExternalConfig {
	return ExternalConfig{
		K:           k,
		BufferBytes: bufferBytes,
		SortWorkers: 2,
		Store:       st,
		RunName:     func(run int) string { return fmt.Sprintf("spill/0000/run-%04d", run) },
		Cal:         costmodel.DefaultCalibration(),
		Threads:     4,
	}
}

// TestExternalStep2MatchesInCore is the tentpole equivalence check at the
// device layer: the sort-merge path must produce a graph byte-identical to
// the in-core hash-table kernel's, across buffer sizes that force
// anywhere from one run to a multi-pass merge.
func TestExternalStep2MatchesInCore(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	slots := hashtable.SizeForKmers(int64(len(sks)*80), 2, 0.65)
	cpu := &CPU{Threads: 4, Cal: costmodel.DefaultCalibration()}
	want, err := cpu.Step2(context.Background(), sks, k, slots)
	if err != nil {
		t.Fatal(err)
	}

	for _, bufferBytes := range []int64{1 << 30, 1 << 16, 1 << 11, 200} {
		st := iosim.NewStore(costmodel.MediumMemCached)
		cfg := externalTestConfig(st, k, bufferBytes)
		var journalled int
		cfg.OnRun = func(run int, name string, bytes int64, crc uint32, vertices int64) error {
			journalled++
			return nil
		}
		out, spill, passes, err := ExternalStep2(context.Background(), sks, cfg)
		if err != nil {
			t.Fatalf("buffer %d: %v", bufferBytes, err)
		}
		if !out.Graph.Equal(want.Graph) {
			t.Fatalf("buffer %d: external graph differs from in-core", bufferBytes)
		}
		var a, b bytes.Buffer
		if err := out.Graph.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := want.Graph.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("buffer %d: serialization differs", bufferBytes)
		}
		if out.Kmers != want.Kmers || out.Distinct != want.Distinct {
			t.Errorf("buffer %d: kmers/distinct %d/%d, want %d/%d",
				bufferBytes, out.Kmers, out.Distinct, want.Kmers, want.Distinct)
		}
		if len(spill.RunNames) == 0 || journalled != len(spill.RunNames) {
			t.Errorf("buffer %d: %d runs, %d journalled", bufferBytes, len(spill.RunNames), journalled)
		}
		if spill.SpilledBytes <= 0 || passes <= 0 {
			t.Errorf("buffer %d: spilled=%d passes=%d", bufferBytes, spill.SpilledBytes, passes)
		}
		if out.TableBytes != 0 {
			t.Errorf("buffer %d: external path reports table bytes %d", bufferBytes, out.TableBytes)
		}
		if out.Seconds <= 0 {
			t.Errorf("buffer %d: no virtual time charged", bufferBytes)
		}
		// Tiny buffers must produce enough runs to force reduction passes.
		if bufferBytes <= 1<<11 && len(spill.RunNames) <= DefaultMergeFanIn && passes != 1 {
			t.Errorf("buffer %d: %d runs, %d passes", bufferBytes, len(spill.RunNames), passes)
		}
	}
}

// TestMergeSpilledMultiPass pins the fan-in reduction: more runs than the
// fan-in must trigger intermediate merge passes and still converge.
func TestMergeSpilledMultiPass(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	st := iosim.NewStore(costmodel.MediumMemCached)
	cfg := externalTestConfig(st, k, 300)
	cfg.MaxFanIn = 4
	spill, err := SpillRuns(context.Background(), sks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(spill.RunNames) <= cfg.MaxFanIn {
		t.Skipf("only %d runs; dataset too small to force multi-pass", len(spill.RunNames))
	}
	out, passes, err := MergeSpilled(context.Background(), spill.RunNames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if passes < 2 {
		t.Errorf("passes = %d, want >= 2 for %d runs at fan-in %d", passes, len(spill.RunNames), cfg.MaxFanIn)
	}
	want := graph.BuildNaive(reads, k)
	if !out.Graph.Equal(want) {
		t.Fatal("multi-pass merge differs from naive oracle")
	}
}

// TestExternalStep2Canceled checks the kernel is cooperative.
func TestExternalStep2Canceled(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	st := iosim.NewStore(costmodel.MediumMemCached)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := ExternalStep2(ctx, sks, externalTestConfig(st, k, 1<<16)); err == nil {
		t.Fatal("canceled context not observed")
	}
}
