package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"

	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/store"
)

// The finish stage under test: every build writes its graph by streaming a
// merge of the subgraph files it published (Result.WriteGraph), and a build
// that keeps its graph decodes that same stream into Result.Graph. Neither can
// be the other's reference, so both are held to the naive construction.

// writtenGraph is what res.WriteGraph writes, with the counts it returns
// checked against the stats the build reported.
func writtenGraph(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	vertices, edges, err := res.WriteGraph(&buf)
	if err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	if vertices != res.Stats.GraphVertices || edges != res.Stats.GraphEdges {
		t.Fatalf("WriteGraph wrote %d vertices, %d edges; Stats says %d, %d",
			vertices, edges, res.Stats.GraphVertices, res.Stats.GraphEdges)
	}
	if int64(buf.Len()) != graph.SerializedSize(int(vertices)) {
		t.Fatalf("WriteGraph wrote %d bytes for %d vertices", buf.Len(), vertices)
	}
	return buf.Bytes()
}

// naiveReference is the finish's independent reference for reads built
// under cfg: the naive construction, filtered by cfg's output filter and
// serialised, with its vertex and edge counts and the unfiltered vertex
// count.
type naiveReference struct {
	bytes                     []byte
	vertices, edges, distinct int64
}

func newNaiveReference(t *testing.T, reads []fastq.Read, cfg Config) naiveReference {
	t.Helper()
	g := graph.BuildNaive(reads, cfg.K)
	distinct := int64(g.NumVertices())
	if cfg.OutputFilterMin > 1 {
		g.FilterByMultiplicity(cfg.OutputFilterMin)
	}
	return naiveReference{serializeGraph(t, g), int64(g.NumVertices()), int64(g.NumEdges()), distinct}
}

// check holds a finished build to the reference: what WriteGraph writes, and
// — kept or not as its config says — Result.Graph, and the totals.
func (ref naiveReference) check(t *testing.T, res *Result, kept bool) {
	t.Helper()
	if got := writtenGraph(t, res); !bytes.Equal(got, ref.bytes) {
		t.Fatal("WriteGraph differs from the naive graph, filtered and written")
	}
	if kept != (res.Graph != nil) {
		t.Fatalf("KeepSubgraphs %v, Result.Graph %v", kept, res.Graph != nil)
	}
	if kept && !bytes.Equal(serializeGraph(t, res.Graph), ref.bytes) {
		t.Fatal("Result.Graph differs from the naive graph, filtered and written")
	}
	if s := res.Stats; s.GraphVertices != ref.vertices || s.GraphEdges != ref.edges || s.DistinctVertices != ref.distinct {
		t.Fatalf("Stats counts %d vertices, %d edges, %d distinct; the naive graph %d, %d, %d",
			s.GraphVertices, s.GraphEdges, s.DistinctVertices, ref.vertices, ref.edges, ref.distinct)
	}
}

// TestWriteGraphIdenticalWhetherGraphIsKept builds each shape of build with
// KeepSubgraphs on and off: what WriteGraph writes, the decoded Result.Graph
// and the totals must be the naive graph's, filtered — in core and spilled,
// on disk and in the in-memory store, under the output filter, and resumed
// after a kill at every step2.partition hit. (The -workers shape is
// internal/dist's TestDistFinishStreamsWhatItDoesNotKeep.)
func TestWriteGraphIdenticalWhetherGraphIsKept(t *testing.T) {
	reads := tinyReads(t)
	shapes := map[string]func(t *testing.T) Config{
		"in-core":       func(t *testing.T) Config { cfg, _ := ckConfig(t); return cfg },
		"no-checkpoint": func(t *testing.T) Config { return tinyConfig() },
		"spilled":       func(t *testing.T) Config { cfg, _ := spillDurabilityConfig(t); return cfg },
		"filter-2": func(t *testing.T) Config {
			cfg, _ := ckConfig(t)
			cfg.OutputFilterMin = 2
			return cfg
		},
		"spilled-filter-2-no-checkpoint": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.PartitionMemoryBudgetBytes = 32 << 10
			cfg.OutputFilterMin = 2
			return cfg
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			ref := newNaiveReference(t, reads, shape(t))
			for _, keep := range []bool{true, false} {
				cfg := shape(t)
				cfg.KeepSubgraphs = keep
				res, err := Build(reads, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref.check(t, res, keep)
				if got := writtenGraph(t, res); !bytes.Equal(got, ref.bytes) {
					t.Fatal("a second WriteGraph differs from the first")
				}
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		for _, filter := range []int{0, 2} {
			cfg, _ := ckConfig(t)
			cfg.OutputFilterMin = filter
			ref := newNaiveReference(t, reads, cfg)
			step := 1
			if testing.Short() {
				step = 5
			}
			for hit := 1; hit <= cfg.NumPartitions; hit += step {
				cfg, _ := ckConfig(t)
				cfg.OutputFilterMin = filter
				cfg.KeepSubgraphs = hit%2 == 0
				ctx, cancel := killAt("step2.partition", hit)
				_, err := BuildContext(ctx, reads, cfg)
				cancel(nil)
				if !errors.Is(err, faultinject.ErrPointCanceled) {
					t.Fatalf("hit %d: err = %v, want the point's cancellation", hit, err)
				}
				cfg.Checkpoint.Resume = true
				cfg.KeepSubgraphs = true
				res, err := Build(reads, cfg)
				if err != nil {
					t.Fatalf("resume after hit %d: %v", hit, err)
				}
				if res.Stats.ResumedPartitions < hit {
					t.Fatalf("hit %d: %d partitions resumed", hit, res.Stats.ResumedPartitions)
				}
				ref.check(t, res, true)
			}
		}
	})
}

// TestWriteGraphRefusesDamagedSubgraphs damages one published subgraph file
// after the build and before the finish, in each way the merge is to catch:
// every one is a typed error, never a graph.
func TestWriteGraphRefusesDamagedSubgraphs(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	cfg.KeepSubgraphs = false
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := writtenGraph(t, res)
	const rec, head = graph.VertexRecordBytes, 14
	victim, other := dataFile(dir, subgraphFile(3)), dataFile(dir, subgraphFile(4))
	intact, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if len(intact) < head+3*rec || len(donor) < head+rec {
		t.Fatalf("subgraphs of %d and %d bytes are too small to damage", len(intact), len(donor))
	}
	damages := map[string]struct {
		damage func(img []byte) []byte
		want   error
	}{
		"mis-ordered": {func(img []byte) []byte {
			a, b := img[head:head+rec], img[head+rec:head+2*rec]
			tmp := bytes.Clone(a)
			copy(a, b)
			copy(b, tmp)
			return img
		}, graph.ErrUnsorted},
		"truncated": {func(img []byte) []byte { return img[:len(img)-rec] }, graph.ErrBadFormat},
		"padded":    {func(img []byte) []byte { return append(img, 0) }, graph.ErrBadFormat},
		"wrong k":   {func(img []byte) []byte { img[5]++; return img }, graph.ErrBadFormat},
		"bad magic": {func(img []byte) []byte { img[0] = 'X'; return img }, graph.ErrBadFormat},
		"a k-mer of another partition": {func(img []byte) []byte {
			// Another partition's first vertex, spliced in where it sorts.
			img = append(img, make([]byte, rec)...)
			stolen := donor[head : head+rec]
			at := head
			for ; at < len(img)-rec && bytes.Compare(kmerKey(img[at:]), kmerKey(stolen)) < 0; at += rec {
			}
			copy(img[at+rec:], img[at:len(img)-rec])
			copy(img[at:], stolen)
			binary.LittleEndian.PutUint64(img[6:], uint64((len(img)-head)/rec))
			return img
		}, graph.ErrUnsorted},
		"a record dropped, header and all": {func(img []byte) []byte {
			// A well-formed, sorted, shorter file: only the journalled
			// totals can tell.
			img = img[:len(img)-rec]
			binary.LittleEndian.PutUint64(img[6:], uint64((len(img)-head)/rec))
			return img
		}, graph.ErrBadFormat},
	}
	for name, d := range damages {
		if err := os.WriteFile(victim, d.damage(bytes.Clone(intact)), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, _, err := res.WriteGraph(&out); !errors.Is(err, d.want) {
			t.Errorf("%s: err = %v, want %v", name, err, d.want)
		}
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.WriteGraph(&bytes.Buffer{}); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("a missing subgraph: err = %v, want store.ErrNotFound", err)
	}
	if err := os.WriteFile(victim, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := writtenGraph(t, res); !bytes.Equal(got, want) {
		t.Fatal("with the file restored, the graph differs from the first one written")
	}
}

// kmerKey is a record's k-mer as bytes that compare in k-mer order.
func kmerKey(rec []byte) []byte {
	var key [16]byte
	binary.BigEndian.PutUint64(key[0:], binary.LittleEndian.Uint64(rec[0:]))
	binary.BigEndian.PutUint64(key[8:], binary.LittleEndian.Uint64(rec[8:]))
	return key[:]
}

// TestWriteGraphClosesEveryStream: the finish closes each subgraph stream it
// opened, on success and on every failure — a failed open half-way, a
// damaged source, a failing writer — so the process ends with the
// descriptors it started with.
func TestWriteGraphClosesEveryStream(t *testing.T) {
	reads := tinyReads(t)
	for _, fail := range []string{"", "open", "source", "writer"} {
		cfg, dir := ckConfig(t)
		cfg.KeepSubgraphs = false
		var faults *faultinject.Store
		cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
			faults = faultinject.WrapStore(st)
			return faults
		}
		res, err := Build(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := descriptors(t)
		var w io.Writer = &bytes.Buffer{}
		switch fail {
		case "open":
			faults.FailReadsNTimes(subgraphFile(cfg.NumPartitions/2), 1, faultinject.ErrInjected)
		case "source":
			if err := os.Truncate(dataFile(dir, subgraphFile(1)), 20); err != nil {
				t.Fatal(err)
			}
		case "writer":
			w = failingWriter{}
		}
		_, _, err = res.WriteGraph(w)
		if (err == nil) != (fail == "") {
			t.Fatalf("failing %q: err = %v", fail, err)
		}
		if fail == "open" && !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("a failed open: err = %v, want the injected fault", err)
		}
		if after := descriptors(t); after != before {
			t.Fatalf("failing %q: %d descriptors open before WriteGraph, %d after", fail, before, after)
		}
	}
}

// TestWriteGraphHoldsOneDescriptorPerPartition finishes an on-disk build of
// more partitions than the customary soft open-file limit of 1024 (the paper
// runs 512 and 960): the finish holds that many descriptors at once, writes
// the graph of a build that kept it, and gives every one back.
func TestWriteGraphHoldsOneDescriptorPerPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1100 partitions twice")
	}
	const partitions = 1100
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil || lim.Cur < partitions+200 {
		t.Skipf("open-file limit %d (err %v) is too low to hold %d subgraphs open", lim.Cur, err, partitions)
	}
	reads := tinyReads(t)
	kept := tinyConfig()
	kept.NumPartitions = partitions
	want, err := Build(reads, kept)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ckConfig(t)
	cfg.NumPartitions = partitions
	cfg.KeepSubgraphs = false
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := descriptors(t)
	w := &descriptorCountingWriter{t: t}
	if _, _, err := res.WriteGraph(w); err != nil {
		t.Fatal(err)
	}
	peak := w.open
	if !bytes.Equal(w.Bytes(), writtenGraph(t, want)) {
		t.Fatalf("the graph streamed from %d subgraph files differs from the kept one", partitions)
	}
	if peak-before < partitions {
		t.Fatalf("%d descriptors open during the merge, %d before it: want one per partition (%d)", peak, before, partitions)
	}
	if after := descriptors(t); after != before {
		t.Fatalf("%d descriptors open before WriteGraph, %d after", before, after)
	}
}

// descriptorCountingWriter is a buffer that notes how many descriptors the
// process holds when the first block of the graph reaches it.
type descriptorCountingWriter struct {
	bytes.Buffer
	t    *testing.T
	open int
}

func (w *descriptorCountingWriter) Write(p []byte) (int, error) {
	if w.open == 0 {
		w.open = descriptors(w.t)
	}
	return w.Buffer.Write(p)
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("no space") }

// descriptors counts the process's open file descriptors.
func descriptors(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd here")
	}
	return len(entries)
}

// TestBuildRecyclesAcrossBuilds runs builds of different shapes back to back
// and at once, all drawing on the same pools — loaded partitions, vertex
// buffers, write blocks, run blocks: every one must write the graph of an
// undisturbed build. Under the race detector this is the check that nothing
// is put back while something can still read it.
func TestBuildRecyclesAcrossBuilds(t *testing.T) {
	reads := tinyReads(t)
	ref, err := Build(reads, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := writtenGraph(t, ref)
	shapes := []func() Config{
		func() Config { return tinyConfig() },
		func() Config {
			cfg := tinyConfig()
			cfg.PartitionMemoryBudgetBytes = 32 << 10
			return cfg
		},
		func() Config {
			cfg := tinyConfig()
			cfg.NumPartitions = 5
			cfg.NumGPUs = 1
			return cfg
		},
	}
	errs := make(chan error)
	const rounds = 3
	for _, shape := range shapes {
		go func() {
			for i := 0; i < rounds; i++ {
				cfg := shape()
				cfg.KeepSubgraphs = false
				res, err := BuildContext(context.Background(), reads, cfg)
				if err == nil {
					var buf bytes.Buffer
					if _, _, err = res.WriteGraph(&buf); err == nil && !bytes.Equal(buf.Bytes(), want) {
						err = errors.New("a build beside others wrote a different graph")
					}
				}
				errs <- err
			}
		}()
	}
	for i := 0; i < rounds*len(shapes); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
