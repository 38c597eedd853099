package device

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/iosim"
	"parahash/internal/store"
)

// streamOnlyStore refuses Open on spill runs — on disk it reads the whole
// file into memory — and counts the streams OpenStream hands out that are
// not yet closed.
type streamOnlyStore struct {
	store.PartitionStore
	open atomic.Int64
}

func (s *streamOnlyStore) Open(name string) (io.Reader, error) {
	if strings.HasPrefix(name, "spill/") {
		return nil, fmt.Errorf("whole-file Open of spill run %q", name)
	}
	return s.PartitionStore.Open(name)
}

func (s *streamOnlyStore) OpenStream(name string) (store.Stream, error) {
	r, err := s.PartitionStore.OpenStream(name)
	if err != nil {
		return nil, err
	}
	s.open.Add(1)
	return &countedStream{Stream: r, open: &s.open}, nil
}

type countedStream struct {
	store.Stream
	open   *atomic.Int64
	closed bool
}

func (c *countedStream) Close() error {
	if !c.closed {
		c.closed = true
		c.open.Add(-1)
	}
	return c.Stream.Close()
}

func externalTestConfig(st store.PartitionStore, k int, bufferBytes int64) ExternalConfig {
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
// anywhere from one run to a multi-pass merge, name every run file it
// leaves in the store, read every run as a stream and close every stream.
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
		st := &streamOnlyStore{PartitionStore: iosim.NewStore()}
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
		if n := st.open.Load(); n != 0 {
			t.Errorf("buffer %d: %d run streams left open", bufferBytes, n)
		}
	}
}

// TestMergeSpilledClosesRunsOnFailure: a merge that fails — a damaged run
// in the final pass or in a reduction pass, a run that is missing, a
// canceled context — closes every run stream it opened.
func TestMergeSpilledClosesRunsOnFailure(t *testing.T) {
	reads := testReads(t)
	k, p := 27, 11
	sks := gatherSuperkmers(t, reads, k, p)
	for _, bufferBytes := range []int64{1 << 11, 300} { // one merge pass, then several
		mem := iosim.NewStore()
		st := &streamOnlyStore{PartitionStore: mem}
		cfg := externalTestConfig(st, k, bufferBytes)
		spill, err := SpillRuns(context.Background(), sks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := spill.RunNames[len(spill.RunNames)-1]
		r, err := mem.Open(last)
		if err != nil {
			t.Fatal(err)
		}
		run, _ := io.ReadAll(r)
		run[len(run)/2] ^= 0x10
		w, _ := mem.Create(last)
		w.Write(run)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MergeSpilled(context.Background(), spill.RunNames, cfg); !errors.Is(err, graph.ErrCorruptRun) {
			t.Errorf("buffer %d: a damaged run: err = %v, want ErrCorruptRun", bufferBytes, err)
		}
		missing := append(slices.Clone(spill.RunNames[:len(spill.RunNames)-1]), "spill/0000/run-9999")
		if _, _, err := MergeSpilled(context.Background(), missing, cfg); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("buffer %d: a missing run: err = %v, want ErrNotFound", bufferBytes, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := MergeSpilled(ctx, spill.RunNames[:len(spill.RunNames)-1], cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("buffer %d: canceled: err = %v", bufferBytes, err)
		}
		if n := st.open.Load(); n != 0 {
			t.Errorf("buffer %d: %d run streams left open", bufferBytes, n)
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
	st := iosim.NewStore()
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
	st := iosim.NewStore()
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
