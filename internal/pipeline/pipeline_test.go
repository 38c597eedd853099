package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counted turns read into a source of exactly n items: it reports io.EOF at
// index n, the way a source that knows its length does.
func counted[I any](n int, read func(i int) (I, error)) func(i int) (I, error) {
	return func(i int) (I, error) {
		if i >= n {
			var zero I
			return zero, io.EOF
		}
		return read(i)
	}
}

// streamed is counted for a source that cannot say where it ends: it numbers
// its own items and ignores the index it is asked for, like a parser over a
// stream.
func streamed[I any](n int, read func(i int) (I, error)) func(i int) (I, error) {
	next := 0
	return func(int) (I, error) {
		if next >= n {
			var zero I
			return zero, io.EOF
		}
		next++
		return read(next - 1)
	}
}

// sourceKind is one of the two ways a run's input ends: a source that knows
// its length (and weighs the index past its end 0), or a stream that finds
// out by reading (and so weighs every index alike).
type sourceKind struct {
	name    string
	streams bool
}

var sourceKinds = []sourceKind{{name: "counted"}, {name: "streamed", streams: true}}

// sourceOf builds kind's source over n items.
func sourceOf[I any](kind sourceKind, n int, read func(i int) (I, error)) func(i int) (I, error) {
	if kind.streams {
		return streamed(n, read)
	}
	return counted(n, read)
}

// weigh is kind's admission weight function for n items of w bytes each.
func (kind sourceKind) weigh(n int, w int64) func(i int) int64 {
	if kind.streams {
		return func(int) int64 { return w }
	}
	return weighing(n, w)
}

// weighing is the admission weight function of a source of exactly n items of
// w bytes each: the index at which the source ends weighs nothing.
func weighing(n int, w int64) func(i int) int64 {
	return func(i int) int64 {
		if i >= n {
			return 0
		}
		return w
	}
}

// runN runs the pipeline, untraced, over a source of exactly n items.
func runN[I, O any](ctx context.Context, n int, read func(i int) (I, error), workers []Worker[I, O], write func(i int, o O) error, pol Policy) (Report, error) {
	return RunResilientTraced(ctx, counted(n, read), workers, write, pol, nil)
}

// The TestRun* cases run the pipeline under the zero Policy — the plain,
// retry-nothing runtime.

func TestRunProcessesAllPartitionsInOrder(t *testing.T) {
	const n = 50
	read := func(i int) (int, error) { return i, nil }
	double := func(_ context.Context, x int) (int, error) { return 2 * x, nil }
	workers := []Worker[int, int]{double, double, double}

	var got []int
	write := func(i, o int) error {
		if o != 2*i {
			return fmt.Errorf("partition %d produced %d", i, o)
		}
		got = append(got, i)
		return nil
	}
	rep, err := runN(context.Background(), n, read, workers, write, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("wrote %d partitions, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("output order broken at %d: %d", i, v)
		}
	}
	if len(rep.Assignment) != n {
		t.Fatalf("assignment has %d entries", len(rep.Assignment))
	}
	for i, w := range rep.Assignment {
		if w < 0 || w >= len(workers) {
			t.Fatalf("partition %d assigned to bogus worker %d", i, w)
		}
	}
}

func TestRunWorkStealing(t *testing.T) {
	// Every worker steals from the same queue, and between them they process
	// each partition exactly once.
	const n = 200
	var perWorker [4]atomic.Int64
	workers := make([]Worker[int, int], 4)
	for w := range workers {
		w := w
		workers[w] = func(_ context.Context, x int) (int, error) {
			perWorker[w].Add(1)
			return x, nil
		}
	}
	_, err := runN(context.Background(), n, func(i int) (int, error) { return i, nil }, workers,
		func(i, o int) error { return nil }, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for w := range perWorker {
		total += perWorker[w].Load()
	}
	if total != n {
		t.Fatalf("workers processed %d partitions, want %d", total, n)
	}
}

func TestRunReadError(t *testing.T) {
	boom := errors.New("boom")
	var attempts atomic.Int64
	_, err := runN(context.Background(), 10,
		func(i int) (int, error) {
			if i == 3 {
				attempts.Add(1)
				return 0, boom
			}
			return i, nil
		},
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil }, Policy{})
	if !errors.Is(err, boom) {
		t.Fatalf("read error not surfaced: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("the zero policy read the failing partition %d times, want 1", got)
	}
}

func TestRunWriteError(t *testing.T) {
	boom := errors.New("disk full")
	var attempts atomic.Int64
	_, err := runN(context.Background(), 10,
		func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{okWorker},
		func(i, o int) error {
			if i == 7 {
				attempts.Add(1)
				return boom
			}
			return nil
		}, Policy{})
	if !errors.Is(err, boom) {
		t.Fatalf("write error not surfaced: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("the zero policy wrote the failing partition %d times, want 1", got)
	}
}

func TestRunZeroPartitions(t *testing.T) {
	rep, err := runN(context.Background(), 0, func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return errors.New("nothing to write") }, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Assignment) != 0 || len(rep.Written) != 0 {
		t.Fatalf("an empty source left a report of %d/%d partitions", len(rep.Assignment), len(rep.Written))
	}
}

func TestRunAssignmentOnFailure(t *testing.T) {
	// Partitions no worker produced are attributed to no one (-1), never to
	// worker 0 (the zero value).
	boom := errors.New("boom")
	rep, err := runN(context.Background(), 8,
		func(i int) (int, error) { return 0, boom },
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil }, Policy{})
	if !errors.Is(err, boom) {
		t.Fatalf("read error not surfaced: %v", err)
	}
	if len(rep.Assignment) != 8 {
		t.Fatalf("assignment has %d entries, want 8", len(rep.Assignment))
	}
	for i, w := range rep.Assignment {
		if w != -1 {
			t.Errorf("partition %d attributed to worker %d on failure, want -1", i, w)
		}
	}
}

func TestRunPromptShutdown(t *testing.T) {
	// A source that fails is not asked again — under any attempt budget, a
	// second read of a stream would resume past the bad record — and what it
	// yielded before the failure still drains: items 0 and 1 are written,
	// nothing is read after index 2, and the error comes back wrapped.
	torn := errors.New("input torn")
	for _, pol := range []Policy{{}, {MaxAttempts: 3, QuarantineAfter: 2}} {
		check := goroutineFence(t)
		var reads atomic.Int64
		read := func(int) (int, error) {
			i := int(reads.Add(1)) - 1
			if i >= 2 {
				return 0, &SourceError{Err: torn}
			}
			return i, nil
		}
		var wrote []int
		rep, err := RunResilientTraced(context.Background(), read, []Worker[int, int]{okWorker, okWorker},
			func(i, o int) error { wrote = append(wrote, o); return nil }, pol, nil)
		if !errors.Is(err, torn) {
			t.Fatalf("MaxAttempts=%d: source error not surfaced: %v", pol.MaxAttempts, err)
		}
		if got := reads.Load(); got != 3 {
			t.Fatalf("MaxAttempts=%d: the source was read %d times, want 3 (two items, one failure)", pol.MaxAttempts, got)
		}
		if len(wrote) != 2 || wrote[0] != 0 || wrote[1] != 1 {
			t.Fatalf("MaxAttempts=%d: wrote %v, want the two items read before the failure", pol.MaxAttempts, wrote)
		}
		if rep.Retries != 0 || len(rep.Assignment) != 2 || len(rep.FailedPartitions) != 0 {
			t.Fatalf("MaxAttempts=%d: report %+v, want no retries and two items", pol.MaxAttempts, rep)
		}
		if len(rep.Faults) != 1 || rep.Faults[0].Stage != "read" || rep.Faults[0].Partition != 2 {
			t.Fatalf("MaxAttempts=%d: faults %+v, want the one failed read", pol.MaxAttempts, rep.Faults)
		}
		check()
	}
}

// spanLog is a concurrency-safe SpanRecorder for tests.
type spanLog struct {
	mu    sync.Mutex
	spans []recordedSpan
}

type recordedSpan struct {
	stage             string
	partition, worker int
	start, end        time.Time
}

func (l *spanLog) StageSpan(stage string, partition, worker int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, recordedSpan{stage, partition, worker, start, end})
}

func TestRunTracedRecordsSpans(t *testing.T) {
	const n = 10
	var log spanLog
	_, err := RunResilientTraced(context.Background(),
		counted(n, func(i int) (int, error) { return i, nil }),
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil },
		Policy{}, &log)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string][]int{
		StageRead:    make([]int, n),
		StageCompute: make([]int, n),
		StageWrite:   make([]int, n),
	}
	for _, s := range log.spans {
		perPart, ok := counts[s.stage]
		if !ok {
			t.Fatalf("unknown stage %q", s.stage)
		}
		if s.partition >= n {
			t.Fatalf("%s span for index %d: the read that found the end of the source is not a partition", s.stage, s.partition)
		}
		perPart[s.partition]++
		if s.end.Before(s.start) {
			t.Errorf("%s span of partition %d ends before it starts", s.stage, s.partition)
		}
		if s.stage == StageCompute {
			if s.worker != 0 {
				t.Errorf("compute span worker = %d, want 0", s.worker)
			}
		} else if s.worker != -1 {
			t.Errorf("%s span worker = %d, want -1", s.stage, s.worker)
		}
	}
	for stage, perPart := range counts {
		for i, c := range perPart {
			if c != 1 {
				t.Errorf("stage %s partition %d recorded %d spans, want 1", stage, i, c)
			}
		}
	}
}

func mkParts(n int, in, out float64, costs ...float64) []Partition {
	parts := make([]Partition, n)
	for i := range parts {
		cs := make([]float64, len(costs))
		copy(cs, costs)
		parts[i] = Partition{InputSeconds: in, OutputSeconds: out, ComputeSeconds: cs, WorkUnits: 1}
	}
	return parts
}

func TestSimulateSingleProcessor(t *testing.T) {
	// 4 partitions: input 1s, compute 2s, output 1s. Pipelined on one
	// processor: compute dominates; makespan = first input (1) + 4×2 + last
	// output (1) = 10.
	parts := mkParts(4, 1, 1, 2)
	s, err := Simulate(parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Elapsed-10) > 1e-9 {
		t.Errorf("elapsed = %.2f, want 10", s.Elapsed)
	}
	if math.Abs(s.NonPipelinedElapsed-16) > 1e-9 {
		t.Errorf("non-pipelined = %.2f, want 16", s.NonPipelinedElapsed)
	}
}

func TestSimulateIOBound(t *testing.T) {
	// Input dominates: compute hides entirely inside input transfer.
	parts := mkParts(10, 5, 1, 0.5)
	s, err := Simulate(parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Makespan ≈ 10×5 + 0.5 + 1 = 51.5.
	if math.Abs(s.Elapsed-51.5) > 1e-9 {
		t.Errorf("elapsed = %.2f, want 51.5", s.Elapsed)
	}
	// Pipelining should save roughly the compute+output time (Fig. 12's
	// IO-dominated case saves half when in/out/compute are comparable).
	if s.NonPipelinedElapsed <= s.Elapsed {
		t.Error("pipelining should beat sequential stages")
	}
}

func TestSimulateFasterProcessorGetsMoreWork(t *testing.T) {
	// Processor 0 takes 4s per partition, processor 1 takes 1s: processor 1
	// should end up with ~4x the partitions (work-stealing balance).
	parts := mkParts(100, 0.01, 0.01, 4, 1)
	s, err := Simulate(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcParts[1] <= 2*s.ProcParts[0] {
		t.Errorf("fast processor got %d parts vs slow %d; want ~4x", s.ProcParts[1], s.ProcParts[0])
	}
	shares := s.WorkloadShares()
	ideal := IdealShares([]float64{400, 100}) // solo times
	if math.Abs(shares[1]-ideal[1]) > 0.10 {
		t.Errorf("fast share %.2f, ideal %.2f", shares[1], ideal[1])
	}
}

func TestSimulateCoprocessingBeatsSolo(t *testing.T) {
	parts := mkParts(64, 0.01, 0.01, 1, 1)
	solo, err := Simulate(mkParts(64, 0.01, 0.01, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	duo, err := Simulate(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	speedup := solo.Elapsed / duo.Elapsed
	if speedup < 1.8 || speedup > 2.05 {
		t.Errorf("2-processor speedup = %.2f, want ~2", speedup)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, 0); err == nil {
		t.Error("numProcs=0 accepted")
	}
	if _, err := Simulate(mkParts(1, 0, 0, 1), 2); err == nil {
		t.Error("cost arity mismatch accepted")
	}
}

func TestSimulateEmpty(t *testing.T) {
	s, err := Simulate(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Elapsed != 0 || s.NonPipelinedElapsed != 0 {
		t.Errorf("empty schedule: %+v", s)
	}
	if shares := s.WorkloadShares(); shares[0] != 0 || shares[1] != 0 {
		t.Error("empty shares should be zero")
	}
}

func TestIdealShares(t *testing.T) {
	shares := IdealShares([]float64{100, 50})
	if math.Abs(shares[0]-1.0/3) > 1e-9 || math.Abs(shares[1]-2.0/3) > 1e-9 {
		t.Errorf("shares = %v", shares)
	}
	zero := IdealShares([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("all-zero solo times should give zero shares")
	}
}

func TestSimulateStageSpans(t *testing.T) {
	parts := mkParts(20, 0.5, 0.3, 2, 1)
	s, err := Simulate(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(parts)
	for _, arr := range [][]float64{s.InputStart, s.InputEnd, s.ComputeStart, s.ComputeEnd, s.OutputStart, s.OutputEnd} {
		if len(arr) != n {
			t.Fatalf("span array length %d, want %d", len(arr), n)
		}
	}
	for i := range parts {
		if s.InputEnd[i]-s.InputStart[i] != parts[i].InputSeconds {
			t.Errorf("partition %d input span %.2f, want %.2f", i,
				s.InputEnd[i]-s.InputStart[i], parts[i].InputSeconds)
		}
		if s.ComputeStart[i] < s.InputEnd[i] {
			t.Errorf("partition %d computed before its input landed", i)
		}
		want := parts[i].ComputeSeconds[s.Assignment[i]]
		if got := s.ComputeEnd[i] - s.ComputeStart[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("partition %d compute span %.2f, want %.2f", i, got, want)
		}
		if s.OutputStart[i] < s.ComputeEnd[i] {
			t.Errorf("partition %d written before it was produced", i)
		}
		if i > 0 && s.OutputStart[i] < s.OutputEnd[i-1] {
			t.Errorf("partition %d output overlaps partition %d", i, i-1)
		}
	}
	if s.OutputEnd[n-1] != s.Elapsed {
		t.Errorf("last output ends at %.2f, elapsed %.2f", s.OutputEnd[n-1], s.Elapsed)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	parts := mkParts(50, 0.3, 0.2, 2, 1.5, 1.1)
	a, err := Simulate(parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Error("simulation not deterministic")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("assignment not deterministic")
		}
	}
}
