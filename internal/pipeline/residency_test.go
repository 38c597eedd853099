package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunResilientReadAheadIsBounded counts, at every read, the partitions
// read so far minus the partitions a worker has returned from: that is never
// more than len(workers)+1, with or without an admission gate, while slow
// workers and a slower writer give the reader every chance to run ahead.
func TestRunResilientReadAheadIsBounded(t *testing.T) {
	for _, src := range sourceKinds {
		for _, gated := range []bool{false, true} {
			for _, numWorkers := range []int{1, 3} {
				readAheadIsBounded(t, src, gated, numWorkers)
			}
		}
	}
}

func readAheadIsBounded(t *testing.T, src sourceKind, gated bool, numWorkers int) {
	t.Helper()
	const n = 60
	var reads, worked atomic.Int64
	var maxAhead int64
	read := func(i int) (int, error) {
		// Only the reader writes maxAhead; the run's return orders it
		// before the assertion below.
		if ahead := reads.Add(1) - worked.Load(); ahead > maxAhead {
			maxAhead = ahead
		}
		return i, nil
	}
	workers := make([]Worker[int, int], numWorkers)
	for w := range workers {
		workers[w] = func(_ context.Context, x int) (int, error) {
			time.Sleep(200 * time.Microsecond)
			worked.Add(1)
			return x, nil
		}
	}
	write := func(i, o int) error {
		time.Sleep(300 * time.Microsecond)
		return nil
	}
	var pol Policy
	if gated {
		gate, err := NewGate(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		pol.Admission = gate
		pol.AdmissionWeight = src.weigh(n, 1)
	}
	rep, err := RunResilientTraced(context.Background(), sourceOf(src, n, read), workers, write, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxAhead > int64(numWorkers)+1 || maxAhead < 1 {
		t.Errorf("%s gated=%v workers=%d: reader got %d partitions ahead, bound is %d", src.name, gated, numWorkers, maxAhead, numWorkers+1)
	}
	if len(rep.Written) != n {
		t.Errorf("%s: the report covers %d partitions, want %d", src.name, len(rep.Written), n)
	}
	if gated && rep.Admission.BalanceBytes != 0 {
		t.Errorf("%s: gate left unbalanced: %+v", src.name, rep.Admission)
	}
}

// payload is an input or output whose collection a finalizer reports.
type payload struct {
	id  int
	buf [1 << 10]byte
}

func collectable(freed *atomic.Int64, id int) *payload {
	p := &payload{id: id}
	runtime.SetFinalizer(p, func(*payload) { freed.Add(1) })
	return p
}

// TestRunResilientReleasesInputsAndOutputsMidRun parks the last partition's
// worker until the earlier partitions' inputs and outputs have been
// collected: a run that kept them until it returned would never get there.
func TestRunResilientReleasesInputsAndOutputsMidRun(t *testing.T) {
	for _, src := range sourceKinds {
		t.Run(src.name, func(t *testing.T) { releasesInputsAndOutputsMidRun(t, src) })
	}
}

func releasesInputsAndOutputsMidRun(t *testing.T, src sourceKind) {
	const n = 8
	var inputsFreed, outputsFreed atomic.Int64
	var written atomic.Int64
	waitFreed := func(what string, freed *atomic.Int64) error {
		deadline := time.Now().Add(10 * time.Second)
		for freed.Load() < n-1 {
			if time.Now().After(deadline) {
				return errors.New(what + " of finished partitions still reachable while the run goes on")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	read := func(i int) (*payload, error) { return collectable(&inputsFreed, i), nil }
	worker := func(_ context.Context, in *payload) (*payload, error) {
		if in.id == n-1 {
			for written.Load() < n-1 {
				time.Sleep(time.Millisecond)
			}
			if err := waitFreed("inputs", &inputsFreed); err != nil {
				return nil, err
			}
			if err := waitFreed("outputs", &outputsFreed); err != nil {
				return nil, err
			}
		}
		return collectable(&outputsFreed, in.id), nil
	}
	write := func(i int, o *payload) error {
		if o.id != i {
			return errors.New("output delivered to the wrong slot")
		}
		written.Add(1)
		return nil
	}
	if _, err := RunResilientTraced(context.Background(), sourceOf(src, n, read), []Worker[*payload, *payload]{worker, worker}, write, Policy{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunResilientRetriedPartitionsKeepTheirInput fails attempts in every way
// that sends a partition back to the queue — a plain retry, a watchdog kill,
// a quarantine requeue — and checks each later attempt is handed the input
// the read stage produced, not a forgotten one.
func TestRunResilientRetriedPartitionsKeepTheirInput(t *testing.T) {
	const n = 12
	// The flaky worker never fails twice running (that would quarantine it),
	// and alternates an error with a hang the watchdog has to abandon.
	var mu sync.Mutex
	lastFailed, failures := false, 0
	flaky := func(ctx context.Context, in *payload) (int, error) {
		if in == nil {
			return 0, errors.New("attempt handed a dropped input")
		}
		mu.Lock()
		fail := !lastFailed
		lastFailed = fail
		if fail {
			failures++
		}
		hang := failures%2 == 0
		mu.Unlock()
		switch {
		case fail && hang:
			<-ctx.Done()
			return 0, ctx.Err()
		case fail:
			return 0, errors.New("transient")
		}
		return in.id, nil
	}
	dead := func(_ context.Context, in *payload) (int, error) {
		if in == nil {
			return 0, errors.New("attempt handed a dropped input")
		}
		return 0, errors.New("device fell off the bus")
	}
	got := make([]int, n)
	rep, err := runN(context.Background(), n,
		func(i int) (*payload, error) { return &payload{id: i}, nil },
		[]Worker[*payload, int]{flaky, dead},
		func(i, o int) error { got[i] = o; return nil },
		Policy{MaxAttempts: 2 * n, QuarantineAfter: 2, AttemptTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("run failed: %v (faults %v)", err, rep.Faults)
	}
	for i, o := range got {
		if o != i {
			t.Fatalf("partition %d wrote %d", i, o)
		}
	}
	if rep.Retries == 0 || rep.WatchdogKills == 0 || rep.Requeues == 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("the run did not exercise every requeue path: %+v", rep)
	}
}

// TestRunResilientStopsWithReaderParkedOnBound cancels, and separately
// abandons, a run whose reader is parked on the read-ahead bound behind
// workers that never finish: it must return promptly, leak nothing and leave
// the admission gate balanced.
func TestRunResilientStopsWithReaderParkedOnBound(t *testing.T) {
	for _, src := range sourceKinds {
		for _, how := range []string{"cancel", "abandon"} {
			t.Run(src.name+"/"+how, func(t *testing.T) { stopsWithReaderParkedOnBound(t, src, how) })
		}
	}
}

func stopsWithReaderParkedOnBound(t *testing.T, src sourceKind, how string) {
	const n, numWorkers = 20, 2
	check := goroutineFence(t)
	gate, err := NewGate(100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("stop")
	var reads atomic.Int64
	parked := make(chan struct{})
	read := func(i int) (int, error) {
		if reads.Add(1) == numWorkers+1 {
			close(parked) // the bound's last read: the reader parks next
		}
		return i, nil
	}
	worker := func(wctx context.Context, x int) (int, error) {
		<-parked
		if how == "abandon" {
			return 0, errors.New("device fell off the bus")
		}
		<-wctx.Done()
		return 0, wctx.Err()
	}
	go func() {
		<-parked
		time.Sleep(5 * time.Millisecond)
		if how == "cancel" {
			cancel(cause)
		}
	}()
	pol := Policy{Admission: gate, AdmissionWeight: src.weigh(n, 10), QuarantineAfter: 1}
	start := time.Now()
	rep, runErr := RunResilientTraced(ctx, sourceOf(src, n, read), []Worker[int, int]{worker, worker}, func(i, o int) error { return nil }, pol, nil)
	cancel(nil)
	switch how {
	case "cancel":
		if !errors.Is(runErr, cause) || !rep.Canceled {
			t.Fatalf("cancel: err %v, report %+v", runErr, rep)
		}
	case "abandon":
		if !errors.Is(runErr, ErrNoHealthyWorkers) {
			t.Fatalf("abandon: err %v", runErr)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%s: run took %v to stop", how, took)
	}
	if got := reads.Load(); got != numWorkers+1 {
		t.Fatalf("%s: %d partitions read, the bound allows %d before any is produced", how, got, numWorkers+1)
	}
	if len(rep.Assignment) != numWorkers+1 || len(rep.Written) != numWorkers+1 {
		t.Fatalf("%s: the report covers %d/%d partitions, %d were taken up", how, len(rep.Assignment), len(rep.Written), numWorkers+1)
	}
	if rep.Admission.BalanceBytes != 0 {
		t.Fatalf("%s: gate left holding %d bytes", how, rep.Admission.BalanceBytes)
	}
	if err := gate.Acquire(context.Background(), 100); err != nil {
		t.Fatalf("%s: gate leaked a grant: %v", how, err)
	}
	gate.Release(100)
	check()
}
