package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"parahash"
	"parahash/internal/graph"
	"parahash/internal/store"
)

// fastqStream generates FASTQ records on the fly — nothing of the upload
// exists before it is read — and calls probe now and then with the bytes
// served so far.
type fastqStream struct {
	left   int64
	served int64
	rec    []byte
	off    int
	n      int
	probe  func(served int64)
}

func (s *fastqStream) Read(p []byte) (int, error) {
	if s.off == len(s.rec) {
		if s.left <= 0 {
			return 0, io.EOF
		}
		s.n++
		seq := strings.Repeat("ACGTTGCATGCAAGCT", 7)[s.n%16:][:96]
		s.rec = []byte(fmt.Sprintf("@read%d\n%s\n+\n%s\n", s.n, seq, strings.Repeat("I", len(seq))))
		s.off = 0
		s.left -= int64(len(s.rec))
		if s.n%20000 == 0 {
			s.probe(s.served)
		}
	}
	n := copy(p, s.rec[s.off:])
	s.off += n
	s.served += int64(n)
	return n, nil
}

// heapInUse is the heap in use once the collector has run.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestSubmitStreamsUpload: Submit tees the upload to disk while one parser
// pass validates and weighs it, so the daemon's heap does not grow with the
// upload; what is stored is what was sent, gzip included; and an upload the
// parser refuses — cut short, or holding no read — is a 400 that journals
// nothing and leaves no file.
func TestSubmitStreamsUpload(t *testing.T) {
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	size := int64(64 << 20)
	if testing.Short() {
		size = 8 << 20
	}
	base := heapInUse()
	var grew int64
	probes := 0
	upload := &fastqStream{left: size, probe: func(int64) {
		probes++
		grew = max(grew, heapInUse()-base)
	}}
	rec, err := m.Submit(JobSpec{}, upload)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(rec.ID); err != nil { // the build is not the subject
		t.Fatal(err)
	}
	if probes < 3 {
		t.Fatalf("the heap was sampled %d times during a %d MB upload", probes, size>>20)
	}
	if grew >= 8<<20 {
		t.Fatalf("the heap grew by %d MB while a %d MB upload was submitted", grew>>20, size>>20)
	}
	if st, err := os.Stat(m.inputPath(rec.ID)); err != nil || st.Size() != upload.served || upload.served < size {
		t.Fatalf("stored input: %v, %v; %d bytes were uploaded", st, err, upload.served)
	}
	if want := int64(upload.n) * (96 - int64(testBase().K) + 1); rec.TotalKmers != want {
		t.Fatalf("the upload's %d reads weigh %d k-mers, want %d", upload.n, rec.TotalKmers, want)
	}

	// A gzip upload is stored as sent and builds the same graph.
	input := tinyFASTQ(t)
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(input)
	zw.Close()
	rec, err = m.Submit(JobSpec{}, bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stored, err := os.ReadFile(m.inputPath(rec.ID)); err != nil || !bytes.Equal(stored, zipped.Bytes()) {
		t.Fatalf("the stored input is not the gzip stream that was sent (%v)", err)
	}
	waitJobState(t, m, rec.ID, StateDone)
	if got, err := os.ReadFile(m.GraphPath(rec.ID)); err != nil || !bytes.Equal(got, oracleGraphBytes(t, input, testBase())) {
		t.Fatalf("the gzip job's graph differs from the oracle's (%v)", err)
	}

	// Refused uploads.
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	journalled := len(m.List())
	cut := bytes.Index(input[len(input)/2:], []byte("\n+\n")) + len(input)/2 + 1
	for name, body := range map[string][]byte{
		"cut short inside a record": input[:cut],
		"a torn gzip stream":        zipped.Bytes()[:zipped.Len()/2],
		"blank lines":               []byte("\n\n\n"),
		"nothing":                   nil,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-fastq", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, msg)
		}
	}
	if got := len(m.List()); got != journalled {
		t.Errorf("refused uploads journalled %d jobs", got-journalled)
	}
	dirs, err := os.ReadDir(m.jobDir(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != journalled {
		t.Errorf("%d job directories for %d journalled jobs: a refused upload left files behind", len(dirs), journalled)
	}
}

// TestJobTotalsAreThePublishedGraphs: the vertex and edge totals a done job
// is journalled with — taken from the build's statistics, no graph is walked
// for them — are those of the graph a client downloads, filtered or not.
func TestJobTotalsAreThePublishedGraphs(t *testing.T) {
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	input := tinyFASTQ(t)
	var sizes []int64
	for _, spec := range []JobSpec{{}, {FilterMin: 2}} {
		rec, err := m.Submit(spec, bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		done := waitJobState(t, m, rec.ID, StateDone)
		f, err := os.Open(m.GraphPath(rec.ID))
		if err != nil {
			t.Fatal(err)
		}
		g, err := parahash.ReadGraph(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if done.Vertices != int64(g.NumVertices()) || done.Edges != int64(g.NumEdges()) || g.NumVertices() == 0 {
			t.Fatalf("filter %d: journalled %d vertices, %d edges; graph.dbg holds %d, %d",
				spec.FilterMin, done.Vertices, done.Edges, g.NumVertices(), g.NumEdges())
		}
		sizes = append(sizes, done.Vertices)
	}
	if sizes[1] >= sizes[0] {
		t.Fatalf("the filtered job published %d vertices, the unfiltered %d", sizes[1], sizes[0])
	}
}

// wrongKStore serves one subgraph file with another k in its header.
type wrongKStore struct {
	store.PartitionStore
	name string
}

func (s wrongKStore) OpenStream(name string) (io.ReadCloser, error) {
	r, err := s.PartitionStore.OpenStream(name)
	if err != nil || name != s.name {
		return r, err
	}
	defer r.Close()
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	img[5]++
	return io.NopCloser(bytes.NewReader(img)), nil
}

// TestDamagedSubgraphFailsTheJob: a subgraph file that fails the finish's
// checks makes a failed job with the typed cause in its record — never a
// published graph, whole or partial.
func TestDamagedSubgraphFailsTheJob(t *testing.T) {
	m, err := Open(Options{Root: t.TempDir(), Base: testBase(), Logf: t.Logf,
		WrapJobConfig: func(_ string, cfg parahash.Config) parahash.Config {
			cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
				return wrongKStore{PartitionStore: st, name: "subgraphs/0002"}
			}
			return cfg
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	rec, err := m.Submit(JobSpec{}, bytes.NewReader(tinyFASTQ(t)))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitJobState(t, m, rec.ID, StateFailed)
	if !strings.Contains(failed.Error, graph.ErrBadFormat.Error()) {
		t.Fatalf("job error %q, want the bad subgraph's", failed.Error)
	}
	for _, name := range []string{m.GraphPath(rec.ID), m.GraphPath(rec.ID) + ".tmp"} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("the failed job left %s behind (%v)", name, err)
		}
	}
	if _, err := m.Query(rec.ID, strings.Repeat("A", testBase().K)); err == nil {
		t.Fatal("a failed job answered a query")
	}
}
