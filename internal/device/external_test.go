package device

import (
	"bytes"
	"context"
	"fmt"
	"slices"
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
	}
}

// TestSpillAndMergeMatchInCore is the out-of-core equivalence check at the
// device layer: the sort-merge path must produce a graph byte-identical to
// the in-core hash-table kernel's, across buffer sizes that force
// anywhere from one run to a multi-pass merge, and name every run file it
// leaves in the store.
func TestSpillAndMergeMatchInCore(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	slots := hashtable.SizeForKmers(int64(len(sks)*80), 2, 0.65)
	cpu := &CPU{Threads: 4}
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
		spill, err := SpillRuns(context.Background(), sks, cfg)
		if err != nil {
			t.Fatalf("buffer %d: %v", bufferBytes, err)
		}
		out, passes, err := MergeSpilled(context.Background(), spill.RunNames, cfg)
		if err != nil {
			t.Fatalf("buffer %d: %v", bufferBytes, err)
		}
		var a, b bytes.Buffer
		if err := out.Graph.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := want.Graph.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("buffer %d: external graph differs from in-core", bufferBytes)
		}
		if spill.Kmers != want.Kmers || out.Distinct != want.Distinct {
			t.Errorf("buffer %d: kmers/distinct %d/%d, want %d/%d",
				bufferBytes, spill.Kmers, out.Distinct, want.Kmers, want.Distinct)
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
		// Tiny buffers must produce enough runs to force reduction passes.
		if bufferBytes <= 1<<11 && len(spill.RunNames) <= DefaultMergeFanIn && passes != 1 {
			t.Errorf("buffer %d: %d runs, %d passes", bufferBytes, len(spill.RunNames), passes)
		}
		// SpillFiles is every file in the store: the scanned runs first.
		names, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(names, out.SpillFiles) || !slices.Equal(out.SpillFiles[:len(spill.RunNames)], spill.RunNames) {
			t.Errorf("buffer %d: SpillFiles %v, store holds %v", bufferBytes, out.SpillFiles, names)
		}
	}
}

// TestMergeSpilledMultiPass pins the fan-in reduction: more runs than
// DefaultMergeFanIn must trigger intermediate merge passes and still
// converge.
func TestMergeSpilledMultiPass(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	st := iosim.NewStore(costmodel.MediumMemCached)
	cfg := externalTestConfig(st, k, 300)
	spill, err := SpillRuns(context.Background(), sks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(spill.RunNames) <= DefaultMergeFanIn {
		t.Fatalf("only %d runs; the merge needs more than %d for a reduction pass", len(spill.RunNames), DefaultMergeFanIn)
	}
	out, passes, err := MergeSpilled(context.Background(), spill.RunNames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if passes < 2 {
		t.Errorf("passes = %d, want >= 2 for %d runs at fan-in %d", passes, len(spill.RunNames), DefaultMergeFanIn)
	}
	if intermediates := len(out.SpillFiles) - len(spill.RunNames); intermediates < 1 {
		t.Errorf("%d merge intermediates named for %d passes", intermediates, passes)
	}
	want := graph.BuildNaive(reads, k)
	if !out.Graph.Equal(want) {
		t.Fatal("multi-pass merge differs from naive oracle")
	}
}

// TestSpillAndMergeCanceled checks both halves are cooperative.
func TestSpillAndMergeCanceled(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	st := iosim.NewStore(costmodel.MediumMemCached)
	cfg := externalTestConfig(st, k, 1<<11)
	spill, err := SpillRuns(context.Background(), sks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SpillRuns(ctx, sks, cfg); err == nil {
		t.Error("canceled context not observed by SpillRuns")
	}
	if _, _, err := MergeSpilled(ctx, spill.RunNames, cfg); err == nil {
		t.Error("canceled context not observed by MergeSpilled")
	}
}
