package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"parahash"
	"parahash/internal/graph"
)

// childMemory is what a child build reports of its own memory.
type childMemory struct {
	// peak is the resident high-water mark (VmHWM) in bytes, as the child
	// read it from its own /proc/self/status when the build was done.
	// (wait4's ru_maxrss will not do: a vfork'd child inherits the parent's
	// high-water mark, so it reads no lower than this test process's own.)
	peak int64
	// live is the largest live heap any garbage collection during the build
	// found, in bytes: what the build held, without the slack the collector
	// lets the heap grow by between collections.
	live int64
}

// buildChild runs the CLI in a child process — this test binary re-executed
// into TestMemoryHelper — and returns what it reports of its memory.
func buildChild(t *testing.T, args []string) childMemory {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestMemoryHelper$")
	cmd.Env = append(os.Environ(), "PARAHASH_E2E_HELPER=1", "PARAHASH_E2E_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child build failed: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB`).FindSubmatch(out)
	if m == nil {
		t.Skipf("the child reported no VmHWM (no /proc here?):\n%s", out)
	}
	kb, _ := strconv.ParseInt(string(m[1]), 10, 64)
	l := regexp.MustCompile(`(?m)^live heap peak: (\d+)$`).FindSubmatch(out)
	if l == nil {
		t.Fatalf("the child reported no live heap peak:\n%s", out)
	}
	live, _ := strconv.ParseInt(string(l[1]), 10, 64)
	return childMemory{peak: kb << 10, live: live}
}

// TestMemoryHelper is the re-exec target of buildChild; a no-op in a normal
// test run.
func TestMemoryHelper(t *testing.T) {
	if os.Getenv("PARAHASH_E2E_HELPER") != "1" {
		t.Skip("helper for buildChild")
	}
	workerCommand = helperWorkers(nil)
	// Each collection leaves the live heap it found in this metric; polling
	// it far more often than the build collects keeps the largest.
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var livePeak uint64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			livePeak = max(livePeak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := run(strings.Split(os.Getenv("PARAHASH_E2E_ARGS"), "\x1f"), io.Discard)
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("live heap peak: %d\n", livePeak)
	status, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fmt.Println(line)
		}
	}
}

// TestBuildMemoryFollowsPartitionsNotGraph builds two inputs four times apart
// in size at the same partition count: the build's peak memory may grow with
// a partition, never with the graph. The larger graph must not fit in the
// memory its build peaked at, and between the two builds the peak may grow by
// no more than the graph did — a build that holds its graph grows by the
// decoded subgraphs plus the merged copy, 2.7 times that.
func TestBuildMemoryFollowsPartitionsNotGraph(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two child builds of real size, measured without the race detector's shadow memory")
	}
	dir := t.TempDir()
	var rss, graphBytes [2]int64
	for i, scale := range []float64{0.1, 0.4} {
		in := writeReads(t, filepath.Join(dir, fmt.Sprint(i)), parahash.BumblebeeProfile().Scale(scale))
		out := filepath.Join(dir, fmt.Sprintf("g%d.dbg", i))
		rss[i] = buildChild(t, []string{"-in", in, "-k", "27", "-p", "19", "-partitions", "64", "-threads", "2",
			"-checkpoint-dir", filepath.Join(dir, fmt.Sprintf("ck%d", i)), "-out", out}).peak
		st, err := os.Stat(out)
		if err != nil {
			t.Fatal(err)
		}
		graphBytes[i] = st.Size()
	}
	const mb = 1 << 20
	t.Logf("peak %d MB for a %d MB graph, %d MB for a %d MB graph", rss[0]/mb, graphBytes[0]/mb, rss[1]/mb, graphBytes[1]/mb)
	if graphBytes[1] < 3*graphBytes[0] {
		t.Fatalf("graphs of %d and %d bytes: the inputs are not four times apart", graphBytes[0], graphBytes[1])
	}
	if rss[1] >= graphBytes[1] {
		t.Errorf("the larger build peaked at %d MB, enough to hold its %d MB graph", rss[1]/mb, graphBytes[1]/mb)
	}
	if grew, graphGrew := rss[1]-rss[0], graphBytes[1]-graphBytes[0]; grew > graphGrew {
		t.Errorf("peak memory grew by %d MB while the graph grew by %d MB", grew/mb, graphGrew/mb)
	}
}

// writeReads writes a generated dataset as FASTQ to dir/reads.fq and
// returns the path.
func writeReads(t *testing.T, dir string, profile parahash.Profile) string {
	t.Helper()
	ds, err := parahash.GenerateDataset(profile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "reads.fq")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := parahash.WriteFASTQ(f, ds.Reads); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDistCoordinatorStreamsItsInput builds two inputs four times apart in
// size with -workers 2: the coordinator streams its Step 1 chunk by chunk, as
// a single-process build does, so the largest live heap a collection finds in
// it stays below twice the smaller build's. A coordinator that parses the
// whole input first holds the read set, which triples it. The live heap,
// not the resident peak, is what is compared: how far the collector lets
// the heap grow past it between collections moves the resident peak by
// about as much as the input grows.
func TestDistCoordinatorStreamsItsInput(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two child builds of real size, measured without the race detector's shadow memory")
	}
	dir := t.TempDir()
	var live, inBytes [2]int64
	for i, scale := range []float64{0.1, 0.4} {
		sub := filepath.Join(dir, fmt.Sprint(i))
		in := writeReads(t, sub, parahash.BumblebeeProfile().Scale(scale))
		st, err := os.Stat(in)
		if err != nil {
			t.Fatal(err)
		}
		inBytes[i] = st.Size()
		live[i] = buildChild(t, []string{"-in", in, "-k", "27", "-p", "19", "-partitions", "64", "-threads", "1",
			"-workers", "2", "-checkpoint-dir", filepath.Join(sub, "ck"), "-out", filepath.Join(sub, "g.dbg")}).live
	}
	const mb = 1 << 20
	t.Logf("coordinator live heap peak %d MB for a %d MB input, %d MB for a %d MB input", live[0]/mb, inBytes[0]/mb, live[1]/mb, inBytes[1]/mb)
	if inBytes[1] < 3*inBytes[0] {
		t.Fatalf("inputs of %d and %d bytes are not four times apart", inBytes[0], inBytes[1])
	}
	if live[1] >= 2*live[0] {
		t.Errorf("the coordinator's live heap peaked at %d MB for four times the input, at least twice the %d MB it peaked at for one", live[1]/mb, live[0]/mb)
	}
}

// TestFilterIsTheBuildsOutputFilter: -filter is Config.OutputFilterMin — the
// subgraph files are filtered as they are published, -out is their merge, the
// summary line comes from the build's own counts — and it is part of the
// checkpoint's identity, so a -resume under another value is refused.
func TestFilterIsTheBuildsOutputFilter(t *testing.T) {
	dir := t.TempDir()
	ck, out := filepath.Join(dir, "ck"), filepath.Join(dir, "g.dbg")
	base := []string{"-profile", "tiny", "-partitions", "8", "-threads", "4"}
	var buf bytes.Buffer
	if err := run(append(base, "-filter", "2", "-checkpoint-dir", ck, "-out", out), &buf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`filtered (\d+) vertices below multiplicity 2; (\d+) remain`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no filter summary:\n%s", buf.String())
	}
	removed, _ := strconv.Atoi(m[1])
	remain, _ := strconv.Atoi(m[2])

	// The reference: the unfiltered graph, filtered after the fact.
	whole := filepath.Join(dir, "whole.dbg")
	if err := run(append(base, "-out", whole), io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(whole)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parahash.ReadGraph(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dropped := g.FilterByMultiplicity(2); dropped != removed || dropped == 0 || g.NumVertices() != remain {
		t.Fatalf("summary says %d removed, %d remain; filtering the whole graph removes %d and leaves %d", removed, remain, dropped, g.NumVertices())
	}
	var want bytes.Buffer
	if err := g.Write(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("-filter 2 -out differs from the whole graph filtered afterwards")
	}
	// The published subgraphs are filtered too: their sizes add up to -out's.
	subs, err := filepath.Glob(filepath.Join(ck, "data", "subgraphs", "*"))
	if err != nil || len(subs) != 8 {
		t.Fatalf("subgraph files: %v, %v", subs, err)
	}
	var vertices int64
	for _, name := range subs {
		st, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		vertices += (st.Size() - graph.SerializedSize(0)) / graph.VertexRecordBytes
	}
	if vertices != int64(remain) {
		t.Fatalf("the subgraph files hold %d vertices, -out %d", vertices, remain)
	}

	err = run(append(base, "-filter", "3", "-checkpoint-dir", ck, "-out", out, "-resume"), io.Discard)
	if !errors.Is(err, parahash.ErrManifestMismatch) {
		t.Fatalf("-resume under another -filter: err = %v, want ErrManifestMismatch", err)
	}
	if err := run(append(base, "-filter", "2", "-checkpoint-dir", ck, "-out", out, "-resume"), io.Discard); err != nil {
		t.Fatalf("-resume under the same -filter: %v", err)
	}
}

// TestDamagedSubgraphFailsTheFinish: a published subgraph file the finish
// cannot trust — here one with an edge more than its claim journalled, which
// resume's judgement of each file (form, k, order, size, vertex count) does
// not look at — fails the run typed and leaves neither -out nor its
// temporary file.
func TestDamagedSubgraphFailsTheFinish(t *testing.T) {
	dir := t.TempDir()
	ck, out := filepath.Join(dir, "ck"), filepath.Join(dir, "g.dbg")
	args := []string{"-profile", "tiny", "-partitions", "8", "-threads", "4", "-checkpoint-dir", ck}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(ck, "data", "subgraphs", "0005")
	img, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	// The first vertex's first zero edge counter (record bytes 16-47, after
	// the 14-byte header) becomes an edge.
	first := img[14 : 14+graph.VertexRecordBytes]
	counter := 16
	for counter < len(first) && binary.LittleEndian.Uint32(first[counter:]) != 0 {
		counter += 4
	}
	if counter == len(first) {
		t.Fatal("the first vertex has every edge")
	}
	first[counter] = 1
	if err := os.WriteFile(victim, img, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(append(args, "-resume", "-out", out), io.Discard)
	if !errors.Is(err, graph.ErrBadFormat) {
		t.Fatalf("err = %v, want graph.ErrBadFormat", err)
	}
	for _, name := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("the failed finish left %s behind (%v)", name, err)
		}
	}
}
