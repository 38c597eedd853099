package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parahash/internal/diskstore"
	"parahash/internal/fastq"
	"parahash/internal/manifest"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
	"parahash/internal/simulate"
	"parahash/internal/store"
)

// streamReads is an input several default-test-sized chunks long.
func streamReads(t testing.TB, scale float64) ([]fastq.Read, []byte) {
	t.Helper()
	d, err := simulate.Generate(simulate.TinyProfile().Scale(scale))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fastq.WriteFASTQ(&buf, d.Reads); err != nil {
		t.Fatal(err)
	}
	return d.Reads, buf.Bytes()
}

// step1Artifacts returns what Step 1 left in a checkpoint directory: every
// partition file's bytes and the manifest's Step 1 claims.
func step1Artifacts(t *testing.T, dir string, partitions int) ([][]byte, []manifest.Step1Partition) {
	t.Helper()
	files := make([][]byte, partitions)
	for i := range files {
		data, err := os.ReadFile(dataFile(dir, superkmerFile(i)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	m, err := manifest.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Step1Done {
		t.Fatal("manifest does not record Step 1 as done")
	}
	return files, m.Step1
}

// sameStep1Artifacts holds what Step 1 left in dir to a reference build's
// partition files and manifest claims.
func sameStep1Artifacts(t *testing.T, what, dir string, wantFiles [][]byte, wantClaims []manifest.Step1Partition) {
	t.Helper()
	files, claims := step1Artifacts(t, dir, len(wantFiles))
	for i := range files {
		if !bytes.Equal(files[i], wantFiles[i]) {
			t.Fatalf("%s: partition file %d differs from the reference build's", what, i)
		}
	}
	if !reflect.DeepEqual(claims, wantClaims) {
		t.Fatalf("%s: Step 1 claims %+v, the reference build journalled %+v", what, claims, wantClaims)
	}
}

// processorSets are the device mixes Step 1 is checked over: the CPU alone,
// CPU and GPU co-processing, and GPUs only.
var processorSets = []struct {
	name   string
	useCPU bool
	gpus   int
}{
	{"CPU", true, 0},
	{"CPU+GPU", true, 1},
	{"2 GPUs", false, 2},
}

// TestStreamedStep1ArtifactsIndependentOfChunking is the byte-identity claim
// of the one Step 1: whichever entry point feeds it, whatever the chunk size,
// whichever processors scan the chunks and however the stages interleave, the
// partition files, the Step 1 manifest claims and the final graph are the same
// bytes.
func TestStreamedStep1ArtifactsIndependentOfChunking(t *testing.T) {
	reads, input := streamReads(t, 4)
	cfg := tinyConfig()
	cfg.NumPartitions = 8
	cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir(), InputLabel: "test:stream"}
	reference := buildCheckpointed(t, reads, cfg)
	wantGraph := serializeGraph(t, reference.Graph)
	wantFiles, wantClaims := step1Artifacts(t, cfg.Checkpoint.Dir, cfg.NumPartitions)

	check := func(what string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameStep1Artifacts(t, what, cfg.Checkpoint.Dir, wantFiles, wantClaims)
		if !bytes.Equal(serializeGraph(t, res.Graph), wantGraph) {
			t.Fatalf("%s: graph differs from the reference build's", what)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, maxprocs := range []int{1, 4} {
		runtime.GOMAXPROCS(maxprocs)
		for _, ps := range processorSets {
			cfg.UseCPU, cfg.NumGPUs = ps.useCPU, ps.gpus
			what := fmt.Sprintf("GOMAXPROCS=%d %s", maxprocs, ps.name)

			cfg.Checkpoint.Dir = t.TempDir()
			res, err := Build(reads, cfg)
			check(what+" slice", res, err)

			for _, chunkBases := range []int{1, 64 << 10, 512 << 10, 1 << 30} {
				cfg.Checkpoint.Dir = t.TempDir()
				res, err := BuildFromReader(bytes.NewReader(input), cfg, chunkBases)
				check(fmt.Sprintf("%s reader chunkBases=%d", what, chunkBases), res, err)
				if chunkBases == 1 && res.Stats.Step1.Partitions != len(reads) {
					t.Fatalf("chunkBases=1 streamed %d chunks for %d reads", res.Stats.Step1.Partitions, len(reads))
				}
			}
		}
	}
}

// TestStreamedStep1RecordsStageSpans checks the streamed Step 1 shows up in
// the trace: one read, compute and write wall span per chunk, the compute
// spans naming the configured processors that really scanned the chunks — more
// than one of them when there is more than one.
func TestStreamedStep1RecordsStageSpans(t *testing.T) {
	_, input := streamReads(t, 4)
	cfg := tinyConfig()
	cfg.NumGPUs = 1
	cfg.Trace = obs.NewTrace()
	res, err := BuildFromReader(bytes.NewReader(input), cfg, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	chunks := res.Stats.Step1.Partitions
	if chunks < 8 {
		t.Fatalf("only %d chunks streamed; the test wants several per processor", chunks)
	}
	configured := map[string]bool{"CPU": true, "GPU0": true}
	scannedBy := map[string]int{}
	perStage := map[string][]bool{}
	for _, s := range cfg.Trace.Spans() {
		if s.Step != "step1" || s.Clock != obs.ClockWall {
			continue
		}
		if s.End < s.Start || s.Partition < 0 || s.Partition >= chunks {
			t.Fatalf("malformed step1 span %+v", s)
		}
		if (s.Stage == pipeline.StageCompute) != configured[s.WorkerName] {
			t.Fatalf("step1 %s span attributed to %q", s.Stage, s.WorkerName)
		}
		if s.Stage == pipeline.StageCompute {
			scannedBy[s.WorkerName]++
		}
		if perStage[s.Stage] == nil {
			perStage[s.Stage] = make([]bool, chunks)
		}
		if perStage[s.Stage][s.Partition] {
			t.Fatalf("chunk %d has two %s spans", s.Partition, s.Stage)
		}
		perStage[s.Stage][s.Partition] = true
	}
	for _, stage := range []string{pipeline.StageRead, pipeline.StageCompute, pipeline.StageWrite} {
		seen := 0
		for _, ok := range perStage[stage] {
			if ok {
				seen++
			}
		}
		if seen != chunks {
			t.Fatalf("%d of %d chunks have a step1 %s span", seen, chunks, stage)
		}
	}
	if len(scannedBy) < 2 {
		t.Fatalf("all %d chunks were scanned by %v; two processors are configured", chunks, scannedBy)
	}
	if got := res.Stats.Step1.MeasuredProcessorParts; len(got) != 2 || got[0] != scannedBy["CPU"] || got[1] != scannedBy["GPU0"] {
		t.Fatalf("Step1.MeasuredProcessorParts = %v, the trace has %v", got, scannedBy)
	}
}

// countingSinks wraps a store's sinks to count opens and closes and, when
// failAfter >= 0, to fail every write once that many bytes have been taken.
type countingSinks struct {
	opened, closed atomic.Int64
	written        atomic.Int64
	failAfter      int64
	failWith       error
}

func (c *countingSinks) over(st store.PartitionStore) partitionSinks {
	return func(i int) (io.WriteCloser, error) {
		w, err := st.Create(superkmerFile(i))
		if err != nil {
			return nil, err
		}
		c.opened.Add(1)
		return &countingSink{w: w, c: c}, nil
	}
}

type countingSink struct {
	w io.WriteCloser
	c *countingSinks
}

func (s *countingSink) Write(p []byte) (int, error) {
	if s.c.failAfter >= 0 && s.c.written.Add(int64(len(p))) > s.c.failAfter {
		return 0, fmt.Errorf("sink: %w", s.c.failWith)
	}
	return s.w.Write(p)
}

func (s *countingSink) Close() error {
	s.c.closed.Add(1)
	return s.w.Close()
}

// cancelingReader cancels its build once the stream has been read past a
// byte offset.
type cancelingReader struct {
	r      io.Reader
	left   int
	cancel func()
}

func (c *cancelingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.left -= n; c.left < 0 && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

// TestStreamedStep1StopsCleanly fails the streamed Step 1 in each stage —
// the parser mid-stream, the caller's context mid-stream, the output sinks —
// under the default Resilience, and checks that the typed error comes back, a
// failed source is not read again, every stage goroutine is gone, every sink
// is closed and no .tmp file is left in the store.
func TestStreamedStep1StopsCleanly(t *testing.T) {
	_, input := streamReads(t, 20)
	// The same stream with one oversized record two thirds of the way in.
	cut := bytes.Index(input[2*len(input)/3:], []byte("\n@")) + 2*len(input)/3 + 1
	oversized := append(append(append([]byte(nil), input[:cut]...),
		[]byte("@huge\n"+strings.Repeat("ACGT", 1000)+"\n+\n"+strings.Repeat("I", 4000)+"\n")...), input[cut:]...)
	// And with a record that lost its '+' line: a second Next would find the
	// following record intact and carry on as if nothing were missing.
	malformed := append(append(append([]byte(nil), input[:cut]...),
		[]byte("@torn\nACGTACGT\nIIIIIIII\n")...), input[cut:]...)
	boom := errors.New("sink fell over")
	cause := errors.New("operator interrupt")

	cases := []struct {
		name      string
		input     []byte
		failAfter int64
		failWith  error
		cancelAt  int
		want      error
	}{
		{name: "parse error mid-stream", input: oversized, failAfter: -1, want: fastq.ErrRecordTooLarge},
		{name: "malformed record mid-stream", input: malformed, failAfter: -1, want: fastq.ErrBadRecord},
		{name: "cancel mid-stream", input: input, failAfter: -1, cancelAt: len(input) / 2, want: cause},
		{name: "failing sink", input: input, failAfter: 64 << 10, failWith: boom, want: boom},
		{name: "disk full", input: input, failAfter: 64 << 10, failWith: store.ErrDiskFull, want: store.ErrDiskFull},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			dir := t.TempDir()
			ds, err := diskstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig()
			cfg.NumPartitions = 2 // files large enough that encoders flush mid-stream
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			var r io.Reader = bytes.NewReader(tc.input)
			if tc.cancelAt > 0 {
				r = &cancelingReader{r: r, left: tc.cancelAt, cancel: func() { cancel(cause) }}
			}
			fr := fastq.NewReader(r)
			fr.MaxRecordBytes = 1000
			sinks := &countingSinks{failAfter: tc.failAfter, failWith: tc.failWith}

			// The default Resilience retries a failed stage; the source must
			// be exempt, or a retry would resume past the bad record.
			failed, readsAfterFailure := false, 0
			next := func() (fastq.Read, error) {
				if failed {
					readsAfterFailure++
				}
				rd, err := fr.Next()
				failed = failed || (err != nil && err != io.EOF)
				return rd, err
			}

			_, err = runStep1(ctx, chunkedSource(next, 16<<10), cfg, sinks.over(ds))
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want one wrapping %v", err, tc.want)
			}
			if readsAfterFailure != 0 {
				t.Fatalf("the source was read %d more times after it failed", readsAfterFailure)
			}
			if o, c := sinks.opened.Load(), sinks.closed.Load(); o != int64(cfg.NumPartitions) || c != o {
				t.Fatalf("%d sinks opened, %d closed", o, c)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before, %d after the failed stream", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
			err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err == nil && strings.HasSuffix(p, ".tmp") {
					t.Errorf("left behind %s", p)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
