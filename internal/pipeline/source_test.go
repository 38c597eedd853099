package pipeline

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// These tests run the pipeline over sources whose length it cannot know up
// front: the run ends when read reports io.EOF, wherever that is.

// TestRunResilientSourceEndsAfterAnyCount ends a source after 0, 1 and many
// items, known-length and streamed, with and without retries configured: every
// item is written once, in order, the report covers exactly the items, and the
// source is read once per item plus once to find its end.
func TestRunResilientSourceEndsAfterAnyCount(t *testing.T) {
	for _, src := range sourceKinds {
		for _, n := range []int{0, 1, 37} {
			for _, pol := range []Policy{{}, {MaxAttempts: 3, QuarantineAfter: 2}} {
				check := goroutineFence(t)
				var reads atomic.Int64
				read := func(i int) (int, error) { reads.Add(1); return i, nil }
				var wrote []int
				rep, err := RunResilientTraced(context.Background(), sourceOf(src, n, read),
					[]Worker[int, int]{okWorker, okWorker},
					func(i, o int) error { wrote = append(wrote, o); return nil }, pol, nil)
				if err != nil {
					t.Fatalf("%s n=%d: %v", src.name, n, err)
				}
				if len(wrote) != n || int(reads.Load()) != n {
					t.Fatalf("%s n=%d: %d items read, %d written", src.name, n, reads.Load(), len(wrote))
				}
				for i, o := range wrote {
					if o != i {
						t.Fatalf("%s n=%d: wrote %v, want the items in order", src.name, n, wrote)
					}
				}
				if len(rep.Assignment) != n || len(rep.Written) != n || rep.Retries != 0 || len(rep.Faults) != 0 {
					t.Fatalf("%s n=%d: report %+v", src.name, n, rep)
				}
				for i := range rep.Written {
					if !rep.Written[i] || rep.Assignment[i] < 0 {
						t.Fatalf("%s n=%d: item %d written=%v by worker %d", src.name, n, i, rep.Written[i], rep.Assignment[i])
					}
				}
				check()
			}
		}
	}
}

// TestRunResilientSourceEndsWhileWorkersRetry lets the source end while every
// item is still on its first, failing, attempt: the retries run after the
// input stage has gone, and the run must still wait for them.
func TestRunResilientSourceEndsWhileWorkersRetry(t *testing.T) {
	const n = 2 // both in flight at once, under the read-ahead bound
	ended := make(chan struct{})
	var calls atomic.Int64
	read := func(int) (int, error) {
		i := int(calls.Add(1)) - 1
		if i == n {
			close(ended)
			return 0, io.EOF
		}
		return i, nil
	}
	var failed [n]atomic.Bool
	worker := func(_ context.Context, x int) (int, error) {
		if !failed[x].Swap(true) {
			<-ended
			return 0, errors.New("transient")
		}
		return 10 * x, nil
	}
	var wrote []int
	rep, err := RunResilientTraced(context.Background(), read, []Worker[int, int]{worker, worker},
		func(i, o int) error { wrote = append(wrote, o); return nil },
		Policy{MaxAttempts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrote) != n || wrote[0] != 0 || wrote[1] != 10 {
		t.Fatalf("wrote %v", wrote)
	}
	if rep.Retries != n || len(rep.Written) != n {
		t.Fatalf("report %+v, want %d retries over %d items", rep, n, n)
	}
}

// TestRunResilientSourceEndsWithReaderParkedOnBound has exactly as many items
// as the read-ahead bound lets the reader take up, and workers that hold them
// all: the reader is parked when the only thing left to read is the end.
func TestRunResilientSourceEndsWithReaderParkedOnBound(t *testing.T) {
	const numWorkers = 2
	const n = numWorkers + 1
	gate, err := NewGate(100)
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	parked := make(chan struct{})
	read := func(i int) (int, error) {
		if reads.Add(1) == n {
			close(parked) // the bound's last read: the reader parks next
		}
		return i, nil
	}
	worker := func(_ context.Context, x int) (int, error) {
		<-parked
		time.Sleep(5 * time.Millisecond)
		return x, nil
	}
	rep, err := RunResilientTraced(context.Background(), streamed(n, read), []Worker[int, int]{worker, worker},
		func(i, o int) error { return nil },
		Policy{Admission: gate, AdmissionWeight: func(int) int64 { return 10 }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Written) != n {
		t.Fatalf("the report covers %d items, want %d", len(rep.Written), n)
	}
	for i, w := range rep.Written {
		if !w {
			t.Fatalf("item %d not written", i)
		}
	}
	if rep.Admission.BalanceBytes != 0 {
		t.Fatalf("gate left holding %d bytes", rep.Admission.BalanceBytes)
	}
}

// TestRunResilientStopsBeforeSourceEnds cancels, and separately loses every
// worker of, a run over a source that never ends: the run returns promptly,
// leaves no goroutine and a balanced gate behind, and its report covers the
// items the input stage had taken up by then — there is no other count.
func TestRunResilientStopsBeforeSourceEnds(t *testing.T) {
	for _, how := range []string{"cancel", "abandon"} {
		check := goroutineFence(t)
		gate, err := NewGate(100)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		cause := errors.New("stop")
		var reads, written atomic.Int64
		read := func(i int) (int, error) { reads.Add(1); return i, nil } // never io.EOF
		dead := errors.New("device fell off the bus")
		worker := func(_ context.Context, x int) (int, error) {
			if how == "abandon" && x >= 10 {
				return 0, dead
			}
			return x, nil
		}
		write := func(i, o int) error {
			if written.Add(1) == 10 && how == "cancel" {
				cancel(cause)
			}
			return nil
		}
		pol := Policy{MaxAttempts: 3, QuarantineAfter: 1, Admission: gate, AdmissionWeight: func(int) int64 { return 10 }}
		rep, runErr := RunResilientTraced(ctx, read, []Worker[int, int]{worker, worker}, write, pol, nil)
		cancel(nil)
		switch how {
		case "cancel":
			if !errors.Is(runErr, cause) || !rep.Canceled {
				t.Fatalf("cancel: err %v, report %+v", runErr, rep)
			}
		case "abandon":
			if !errors.Is(runErr, ErrNoHealthyWorkers) || !errors.Is(runErr, dead) || len(rep.Quarantined) != 2 {
				t.Fatalf("abandon: err %v, report %+v", runErr, rep)
			}
			if len(rep.FailedPartitions) == 0 || rep.FailedPartitions[0] != 10 {
				t.Fatalf("abandon: failed partitions %v, want every one from 10 on", rep.FailedPartitions)
			}
		}
		// Taken up is read, or about to be when the run stopped.
		taken := len(rep.Assignment)
		if got := int(reads.Load()); taken < got || taken > got+1 || len(rep.Written) != taken {
			t.Fatalf("%s: the report covers %d/%d items, the source was read %d times", how, taken, len(rep.Written), got)
		}
		done := 0
		for _, w := range rep.Written {
			if w {
				done++
			}
		}
		// Losing the last worker stops the output stage too, so outputs it had
		// not reached stay unwritten.
		if done != int(written.Load()) || done > 10 || (how == "cancel" && done != 10) {
			t.Fatalf("%s: %d items marked written, %d were", how, done, written.Load())
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
}
