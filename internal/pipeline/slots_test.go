package pipeline

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// meetOrFail blocks the first arrival until a second one comes: an attempt
// that calls it returns only once another attempt runs beside it, or fails
// after a while — a run that never overlaps two attempts fails the test
// instead of hanging it.
func meetOrFail() func() error {
	var arrived atomic.Int64
	met := make(chan struct{})
	return func() error {
		if arrived.Add(1) == 2 {
			close(met)
		}
		select {
		case <-met:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("no second attempt ran beside the first")
		}
	}
}

// TestRunResilientSlotsOverlapAttempts gives the one worker two slots: two
// of its attempts run at once, every partition is still written exactly once
// and in index order, and the report attributes them all to the one worker.
func TestRunResilientSlotsOverlapAttempts(t *testing.T) {
	check := goroutineFence(t)
	const n = 40
	meet := meetOrFail()
	var inside, most atomic.Int64
	worker := func(_ context.Context, x int) (int, error) {
		now := inside.Add(1)
		defer inside.Add(-1)
		for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
		}
		if x < 2 {
			if err := meet(); err != nil {
				return 0, err
			}
		}
		// Later partitions finish sooner, so completions come out of order.
		time.Sleep(time.Duration(3-x%3) * 100 * time.Microsecond)
		return 10 * x, nil
	}
	var order []int
	write := func(i, o int) error {
		if o != 10*i {
			t.Errorf("partition %d written with output %d", i, o)
		}
		order = append(order, i)
		return nil
	}
	rep, err := runN(context.Background(), n, func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{worker}, write, Policy{Slots: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if m := most.Load(); m != 2 {
		t.Fatalf("at most %d attempts ran at once on a worker with two slots, want 2", m)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(order, want) {
		t.Fatalf("written in the order %v, want 0..%d once each", order, n-1)
	}
	for i, w := range rep.Assignment {
		if w != 0 || !rep.Written[i] {
			t.Fatalf("partition %d: worker %d, written %v", i, w, rep.Written[i])
		}
	}
	check()
}

// TestRunResilientReadAheadFollowsSlots: the read stage runs ahead by one
// partition more than the attempts the workers run at once — the sum of the
// slots, not the worker count — and no further.
func TestRunResilientReadAheadFollowsSlots(t *testing.T) {
	for _, tc := range []struct {
		slots      []int
		numWorkers int
		bound      int64
	}{
		{[]int{2}, 1, 3},
		{[]int{2, 0}, 2, 4},
		{[]int{3, 1}, 2, 5},
	} {
		var reads, worked atomic.Int64
		var maxAhead int64
		read := func(i int) (int, error) {
			if ahead := reads.Add(1) - worked.Load(); ahead > maxAhead {
				maxAhead = ahead
			}
			return i, nil
		}
		workers := make([]Worker[int, int], tc.numWorkers)
		for w := range workers {
			workers[w] = func(_ context.Context, x int) (int, error) {
				time.Sleep(500 * time.Microsecond)
				worked.Add(1)
				return x, nil
			}
		}
		write := func(i, o int) error { return nil }
		if _, err := runN(context.Background(), 60, read, workers, write, Policy{Slots: tc.slots}); err != nil {
			t.Fatal(err)
		}
		if maxAhead != tc.bound {
			t.Errorf("slots %v over %d workers: the reader got %d partitions ahead, want exactly %d", tc.slots, tc.numWorkers, maxAhead, tc.bound)
		}
	}
}

// TestRunResilientQuarantinesASlottedWorkerOnce fails both attempts a
// two-slot worker has in flight, under QuarantineAfter 1: the worker is
// quarantined once — the healthy count drops once, so the other worker keeps
// the run alive — and both partitions go back to the queue for free and are
// written by the survivor.
func TestRunResilientQuarantinesASlottedWorkerOnce(t *testing.T) {
	check := goroutineFence(t)
	const n = 12
	// The good worker holds its first partition until both of the bad
	// worker's attempts are in, so it cannot drain the queue before the bad
	// worker's second slot gets a partition.
	var inBad, failed atomic.Int64
	bothIn := make(chan struct{})
	waitBothIn := func() error {
		select {
		case <-bothIn:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the bad worker never ran two attempts at once")
		}
	}
	bad := func(_ context.Context, x int) (int, error) {
		if inBad.Add(1) == 2 {
			close(bothIn)
		}
		if err := waitBothIn(); err != nil {
			return 0, err
		}
		failed.Add(1)
		return 0, errors.New("injected device fault")
	}
	good := func(_ context.Context, x int) (int, error) {
		return x, waitBothIn()
	}
	rep, err := runN(context.Background(), n, func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{bad, good}, func(i, o int) error { return nil },
		Policy{Slots: []int{2, 1}, MaxAttempts: 1, QuarantineAfter: 1})
	if err != nil {
		t.Fatalf("the run failed with a healthy worker left: %v", err)
	}
	if failed.Load() != 2 {
		t.Fatalf("the bad worker failed %d attempts, want its two", failed.Load())
	}
	if !slices.Equal(rep.Quarantined, []int{0}) {
		t.Fatalf("quarantined %v, want worker 0 once", rep.Quarantined)
	}
	if rep.Requeues != 2 || rep.Retries != 0 || len(rep.Faults) != 2 {
		t.Fatalf("%d requeues, %d retries, %d faults; want both partitions re-queued for free", rep.Requeues, rep.Retries, len(rep.Faults))
	}
	for i, w := range rep.Assignment {
		if w != 1 || !rep.Written[i] {
			t.Fatalf("partition %d: worker %d, written %v; want every partition from the survivor", i, w, rep.Written[i])
		}
	}
	check()
}

// TestRunResilientWatchdogSpareSlotKeepsProducing hangs one of a two-slot
// worker's attempts until the watchdog abandons it: meanwhile the other slot
// produces the partitions after it, and the hung partition is retried and
// written.
func TestRunResilientWatchdogSpareSlotKeepsProducing(t *testing.T) {
	check := goroutineFence(t)
	const n = 10
	var hung atomic.Bool
	var produced, producedDuringHang atomic.Int64
	worker := func(wctx context.Context, x int) (int, error) {
		if x == 0 && hung.CompareAndSwap(false, true) {
			<-wctx.Done()
			producedDuringHang.Store(produced.Load())
			return 0, wctx.Err()
		}
		produced.Add(1)
		return x, nil
	}
	rep, err := runN(context.Background(), n, func(i int) (int, error) { return i, nil },
		[]Worker[int, int]{worker}, func(i, o int) error { return nil },
		Policy{Slots: []int{2}, MaxAttempts: 2, AttemptTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1", rep.WatchdogKills)
	}
	if producedDuringHang.Load() < 1 {
		t.Fatal("the spare slot produced nothing while the other attempt hung")
	}
	for i, w := range rep.Written {
		if !w {
			t.Fatalf("partition %d not written", i)
		}
	}
	check()
}
