package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// okWorker passes items through unchanged.
func okWorker(_ context.Context, x int) (int, error) { return x, nil }

func TestRunResilientFaultFreeMatchesRun(t *testing.T) {
	const n = 64
	var got []int
	rep, err := runN(context.Background(), n,
		func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{okWorker, okWorker, okWorker},
		func(i, o int) error {
			if o != i {
				return fmt.Errorf("partition %d produced %d", i, o)
			}
			got = append(got, i)
			return nil
		},
		Policy{MaxAttempts: 3, QuarantineAfter: 2})
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
	if rep.Retries != 0 || rep.Requeues != 0 || len(rep.Quarantined) != 0 || rep.BackoffSeconds != 0 {
		t.Errorf("fault-free run reported faults: %+v", rep)
	}
	for i, w := range rep.Assignment {
		if w < 0 || w >= 3 {
			t.Fatalf("partition %d assigned to bogus worker %d", i, w)
		}
	}
}

func TestRunResilientRetriesTransientRead(t *testing.T) {
	boom := errors.New("flaky disk")
	var failures atomic.Int64
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) {
			if i == 4 && failures.Add(1) <= 2 {
				return 0, boom
			}
			return i, nil
		},
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 3, BackoffSeconds: 0.5})
	if err != nil {
		t.Fatalf("transient read fault not recovered: %v", err)
	}
	if rep.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Retries)
	}
	// Backoff doubles: 0.5 + 1.0.
	if rep.BackoffSeconds != 1.5 {
		t.Errorf("backoff = %v, want 1.5", rep.BackoffSeconds)
	}
	if len(rep.Faults) != 2 {
		t.Errorf("faults = %+v, want 2 recovered read faults", rep.Faults)
	}
}

// jitteredBackoffRun performs a run with scripted transient read faults on
// three partitions and returns the reported (virtual-time) backoff total.
func jitteredBackoffRun(t *testing.T, jitter float64, seed int64) float64 {
	t.Helper()
	var failures [10]atomic.Int64
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) {
			if i%3 == 0 && failures[i].Add(1) <= 2 {
				return 0, errors.New("flaky disk")
			}
			return i, nil
		},
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 3, BackoffSeconds: 0.5,
			BackoffJitter: jitter, BackoffJitterSeed: seed})
	if err != nil {
		t.Fatalf("transient faults not recovered: %v", err)
	}
	return rep.BackoffSeconds
}

func TestRunResilientBackoffJitter(t *testing.T) {
	// Four partitions (0,3,6,9) each retry twice: unjittered total is
	// 4 * (0.5 + 1.0) = 6.0 virtual seconds.
	const base = 6.0
	if got := jitteredBackoffRun(t, 0, 7); got != base {
		t.Fatalf("zero jitter changed backoff: got %v, want %v", got, base)
	}

	a := jitteredBackoffRun(t, 0.5, 1)
	b := jitteredBackoffRun(t, 0.5, 1)
	c := jitteredBackoffRun(t, 0.5, 2)
	if a != b {
		t.Errorf("same seed produced different backoff: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("different seeds produced identical backoff %v; jitter is not seeded", a)
	}
	// Every per-retry charge is scaled by a factor in [1-j, 1+j], so the
	// total must sit inside the same envelope around the deterministic sum.
	for _, got := range []float64{a, c} {
		if got < base*0.5 || got > base*1.5 {
			t.Errorf("jittered backoff %v outside envelope [%v, %v]", got, base*0.5, base*1.5)
		}
	}
	if a == base {
		t.Errorf("jitter 0.5 left backoff exactly at the deterministic total %v", base)
	}
}

func TestRunResilientBackoffJitterValidation(t *testing.T) {
	for _, j := range []float64{-0.1, 1.5} {
		_, err := runN(context.Background(), 1,
			func(i int) (int, error) { return i, nil },
			[]Worker[int, int]{okWorker},
			func(i, o int) error { return nil },
			Policy{MaxAttempts: 2, BackoffJitter: j})
		if err == nil {
			t.Errorf("BackoffJitter=%g accepted, want validation error", j)
		}
	}
}

func TestRunResilientReadRetriesExhausted(t *testing.T) {
	boom := errors.New("dead disk")
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		},
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("persistent read fault not surfaced: %v", err)
	}
	if len(rep.FailedPartitions) != 1 || rep.FailedPartitions[0] != 3 {
		t.Errorf("failed partitions = %v, want [3]", rep.FailedPartitions)
	}
}

func TestRunResilientNonRetryableFailsFast(t *testing.T) {
	fatal := errors.New("no such file")
	var reads atomic.Int64
	_, err := runN(context.Background(), 4,
		func(i int) (int, error) {
			if i == 1 {
				reads.Add(1)
				return 0, fatal
			}
			return i, nil
		},
		[]Worker[int, int]{okWorker},
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 5, Retryable: func(err error) bool { return !errors.Is(err, fatal) }})
	if !errors.Is(err, fatal) {
		t.Fatalf("non-retryable error not surfaced: %v", err)
	}
	if reads.Load() != 1 {
		t.Errorf("non-retryable read attempted %d times, want 1", reads.Load())
	}
}

func TestRunResilientWorkerErrorRetriedMidStream(t *testing.T) {
	boom := errors.New("kernel fault")
	var failed atomic.Bool
	worker := func(_ context.Context, x int) (int, error) {
		if x == 5 && !failed.Swap(true) {
			return 0, boom
		}
		return 2 * x, nil
	}
	var got []int
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{worker},
		func(i, o int) error {
			if o != 2*i {
				return fmt.Errorf("partition %d produced %d", i, o)
			}
			got = append(got, i)
			return nil
		},
		Policy{MaxAttempts: 2})
	if err != nil {
		t.Fatalf("worker fault mid-stream not recovered: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("wrote %d partitions, want 10", len(got))
	}
	if rep.Retries != 1 {
		t.Errorf("retries = %d, want 1", rep.Retries)
	}
}

func TestRunResilientAggregatesAllPartitionErrors(t *testing.T) {
	boomA := errors.New("fault A")
	boomB := errors.New("fault B")
	var written atomic.Int64
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) {
			switch i {
			case 2:
				return 0, boomA
			case 7:
				return 0, boomB
			}
			return i, nil
		},
		[]Worker[int, int]{okWorker},
		func(i, o int) error { written.Add(1); return nil },
		Policy{MaxAttempts: 1})
	if !errors.Is(err, boomA) || !errors.Is(err, boomB) {
		t.Fatalf("aggregated error missing a partition fault: %v", err)
	}
	if written.Load() != 8 {
		t.Errorf("healthy partitions written = %d, want 8", written.Load())
	}
	if len(rep.FailedPartitions) != 2 {
		t.Errorf("failed partitions = %v, want [2 7]", rep.FailedPartitions)
	}
}

func TestRunResilientWriteErrorAfterPartialOutput(t *testing.T) {
	boom := errors.New("disk full")
	var got []int
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{okWorker},
		func(i, o int) error {
			if i == 7 {
				return boom
			}
			got = append(got, i)
			return nil
		},
		Policy{MaxAttempts: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
	// Partitions before and after the failed one must still be written, in
	// order.
	want := []int{0, 1, 2, 3, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrote %v, want %v", got, want)
		}
	}
	if len(rep.FailedPartitions) != 1 || rep.FailedPartitions[0] != 7 {
		t.Errorf("failed partitions = %v, want [7]", rep.FailedPartitions)
	}
	if rep.Retries != 1 { // one retried write attempt before giving up
		t.Errorf("retries = %d, want 1", rep.Retries)
	}
}

func TestRunResilientWrittenMarksDurablePartitions(t *testing.T) {
	boom := errors.New("disk full")
	rep, err := runN(context.Background(), 10,
		func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{okWorker},
		func(i, o int) error {
			if i == 7 {
				return boom
			}
			return nil
		},
		Policy{MaxAttempts: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
	// Written is the durable-write marker checkpointing keys off: exactly
	// the partitions whose write stage succeeded, failure included in the
	// slice as false.
	if len(rep.Written) != 10 {
		t.Fatalf("Written has %d entries, want 10", len(rep.Written))
	}
	for i, w := range rep.Written {
		if want := i != 7; w != want {
			t.Errorf("Written[%d] = %v, want %v", i, w, want)
		}
	}
}

func TestRunResilientQuarantineWithOneSurvivor(t *testing.T) {
	const n = 30
	dead := errors.New("gpu fell off the bus")
	// Worker 0 blocks until worker 1 has failed twice, forcing the dying
	// worker to actually claim partitions regardless of goroutine
	// scheduling; otherwise the healthy worker can win every claim and the
	// quarantine path never runs.
	release := make(chan struct{})
	var failures atomic.Int64
	workers := []Worker[int, int]{
		func(_ context.Context, x int) (int, error) { <-release; return x, nil },
		func(_ context.Context, x int) (int, error) {
			if failures.Add(1) == 2 {
				close(release)
			}
			return 0, dead
		},
	}
	var got []int
	rep, err := runN(context.Background(), n,
		func(i int) (int, error) { return i, nil },
		workers,
		func(i, o int) error {
			got = append(got, o)
			return nil
		},
		Policy{MaxAttempts: 3, QuarantineAfter: 2})
	if err != nil {
		t.Fatalf("build failed despite a healthy survivor: %v", err)
	}
	if len(got) != n {
		t.Fatalf("wrote %d partitions, want %d", len(got), n)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 1 {
		t.Errorf("quarantined = %v, want [1]", rep.Quarantined)
	}
	if rep.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", rep.Requeues)
	}
	for i, w := range rep.Assignment {
		if w != 0 {
			t.Fatalf("partition %d produced by worker %d, want survivor 0", i, w)
		}
	}
}

func TestRunResilientAllWorkersQuarantined(t *testing.T) {
	dead := errors.New("total device loss")
	workers := []Worker[int, int]{
		func(_ context.Context, x int) (int, error) { return 0, dead },
		func(_ context.Context, x int) (int, error) { return 0, dead },
	}
	rep, err := runN(context.Background(), 20,
		func(i int) (int, error) { return i, nil },
		workers,
		func(i, o int) error { return nil },
		Policy{MaxAttempts: 5, QuarantineAfter: 1})
	if !errors.Is(err, ErrNoHealthyWorkers) {
		t.Fatalf("expected ErrNoHealthyWorkers, got: %v", err)
	}
	if !errors.Is(err, dead) {
		t.Fatalf("aggregated error lost the device fault: %v", err)
	}
	if len(rep.Quarantined) != 2 {
		t.Errorf("quarantined = %v, want both workers", rep.Quarantined)
	}
	// Every partition the input stage had taken up fails; it takes none up
	// afterwards, and never more than the read-ahead bound before.
	if got := len(rep.FailedPartitions); got == 0 || got != len(rep.Assignment) || got > len(workers)+1 {
		t.Errorf("failed partitions = %d of %d taken up, want all of them and at most %d", got, len(rep.Assignment), len(workers)+1)
	}
}

func TestRunResilientValidationAndZero(t *testing.T) {
	if _, err := runN[int, int](context.Background(), 5, func(i int) (int, error) { return 0, nil },
		nil, func(int, int) error { return nil }, Policy{}); err == nil {
		t.Error("no workers accepted")
	}
	rep, err := runN(context.Background(), 0, func(i int) (int, error) { return 0, nil },
		[]Worker[int, int]{okWorker}, func(int, int) error { return nil }, Policy{})
	if err != nil || len(rep.Assignment) != 0 {
		t.Errorf("zero partitions: %v %+v", err, rep)
	}
}

func TestRunResilientZeroPolicyFailsFastButAggregates(t *testing.T) {
	// The zero policy means one attempt per stage and no quarantine —
	// like Run, but with error aggregation instead of first-error abort.
	boom := errors.New("boom")
	var processed atomic.Int64
	_, err := runN(context.Background(), 10,
		func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{func(_ context.Context, x int) (int, error) {
			if x%2 == 1 {
				return 0, boom
			}
			processed.Add(1)
			return x, nil
		}},
		func(i, o int) error { return nil },
		Policy{})
	if !errors.Is(err, boom) {
		t.Fatalf("worker fault not surfaced: %v", err)
	}
	if processed.Load() != 5 {
		t.Errorf("even partitions processed = %d, want 5 (no global abort)", processed.Load())
	}
}

func TestRunResilientStress(t *testing.T) {
	// Race-detector stress: many partitions, several workers, scripted
	// transient faults in every stage. Run with -race in CI.
	const n = 400
	readFailed := make([]atomic.Bool, n)
	workFailed := make([]atomic.Bool, n)
	writeFailed := make([]atomic.Bool, n)
	transient := errors.New("transient")

	workers := make([]Worker[int, int], 4)
	for w := range workers {
		workers[w] = func(_ context.Context, x int) (int, error) {
			if x%13 == 0 && !workFailed[x].Swap(true) {
				return 0, transient
			}
			return x * 3, nil
		}
	}
	var mu sync.Mutex
	got := make([]int, 0, n)
	rep, err := runN(context.Background(), n,
		func(i int) (int, error) {
			if i%17 == 0 && !readFailed[i].Swap(true) {
				return 0, transient
			}
			return i, nil
		},
		workers,
		func(i, o int) error {
			if i%19 == 0 && !writeFailed[i].Swap(true) {
				return transient
			}
			if o != i*3 {
				return fmt.Errorf("partition %d produced %d", i, o)
			}
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		},
		Policy{MaxAttempts: 3, QuarantineAfter: 50, BackoffSeconds: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("wrote %d partitions, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("write order broken: %d after %d", got[i], got[i-1])
		}
	}
	wantRetries := len(multiples(n, 13)) + len(multiples(n, 17)) + len(multiples(n, 19))
	if rep.Retries != wantRetries {
		t.Errorf("retries = %d, want %d", rep.Retries, wantRetries)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("unexpected quarantine: %v", rep.Quarantined)
	}
}

// multiples returns the multiples of k in [0, n).
func multiples(n, k int) []int {
	var out []int
	for i := 0; i < n; i += k {
		out = append(out, i)
	}
	return out
}
