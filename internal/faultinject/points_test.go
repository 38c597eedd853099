package faultinject

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"parahash/internal/iosim"
	"parahash/internal/store"
)

func TestApplyPointsNoPointsReturnsSameContext(t *testing.T) {
	ctx := context.Background()
	if got := (Plan{}).ApplyPoints(ctx, nil); got != ctx {
		t.Fatal("plan without points wrapped the context")
	}
}

func TestCancelPointCancelsBuildWithCause(t *testing.T) {
	plan := Plan{CancelPoints: []PointFault{{Point: "step2.partition", Hit: 2}}}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx = plan.ApplyPoints(ctx, cancel)

	// Hit 1 does not fire.
	if err := MaybeStall(ctx, "step2.partition"); err != nil {
		t.Fatalf("hit 1 fired: %v", err)
	}
	// A different point never fires.
	if err := MaybeStall(ctx, "step1.published"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	// Hit 2 cancels the build context with ErrPointCanceled as the cause
	// and returns the cancellation.
	if err := MaybeStall(ctx, "step2.partition"); !errors.Is(err, context.Canceled) {
		t.Fatalf("hit 2: err = %v, want context.Canceled", err)
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrPointCanceled) {
		t.Fatalf("cause = %v, want ErrPointCanceled", cause)
	}
}

func TestStallPointBlocksUntilCanceled(t *testing.T) {
	plan := Plan{StallPoints: []PointFault{{Point: "step1.published"}}}
	ctx, cancel := context.WithCancelCause(context.Background())
	ctx = plan.ApplyPoints(ctx, cancel)

	done := make(chan error, 1)
	go func() { done <- MaybeStall(ctx, "step1.published") }()
	select {
	case err := <-done:
		t.Fatalf("stall point returned before cancellation: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel(nil)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("stall returned %v, want context.Canceled", err)
	}
}

// TestPointsAreScopedPerPlanApplication is the satellite's core property:
// two concurrent plan applications arming the same point keep independent
// hit counters, unlike the process-global env arming.
func TestPointsAreScopedPerPlanApplication(t *testing.T) {
	plan := Plan{CancelPoints: []PointFault{{Point: "p", Hit: 1}}}
	ctxA, cancelA := context.WithCancelCause(context.Background())
	defer cancelA(nil)
	ctxB, cancelB := context.WithCancelCause(context.Background())
	defer cancelB(nil)
	a := plan.ApplyPoints(ctxA, cancelA)
	b := plan.ApplyPoints(ctxB, cancelB)

	if err := MaybeStall(a, "p"); !errors.Is(err, context.Canceled) {
		t.Fatalf("plan A point did not fire: %v", err)
	}
	// Plan A's firing must not have consumed plan B's counter, and B's
	// context must still be live.
	if err := ctxB.Err(); err != nil {
		t.Fatalf("plan A's cancel leaked into plan B: %v", err)
	}
	if err := MaybeStall(b, "p"); !errors.Is(err, context.Canceled) {
		t.Fatalf("plan B point did not fire independently: %v", err)
	}
	if cause := context.Cause(b); !errors.Is(cause, ErrPointCanceled) {
		t.Fatalf("plan B cause = %v", cause)
	}
}

func wrappedStore() *Store {
	return WrapStore(iosim.NewStore())
}

func putFile(t *testing.T, s store.PartitionStore, name, content string) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapStoreReadWriteFaults(t *testing.T) {
	s := wrappedStore()
	putFile(t, s, "f", "payload")

	s.FailReadsNTimes("f", 2, ErrInjected)
	for i := 0; i < 2; i++ {
		if _, err := s.Open("f"); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: err = %v, want ErrInjected", i, err)
		}
	}
	r, err := s.Open("f")
	if err != nil {
		t.Fatalf("read after fault drained: %v", err)
	}
	if data, _ := io.ReadAll(r); string(data) != "payload" {
		t.Fatalf("recovered read = %q", data)
	}

	boom := errors.New("boom")
	s.FailWritesNTimes("g", 1, boom)
	w, err := s.Create("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("first write: err = %v, want boom", err)
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatalf("second write after transient fault: %v", err)
	}
}

func TestWrapStoreCorruptionServesFlippedCopy(t *testing.T) {
	s := wrappedStore()
	putFile(t, s, "f", "abcdef")
	s.CorruptReadsNTimes("f", 1)

	r, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) == "abcdef" {
		t.Fatal("corrupt read served intact bytes")
	}
	// Exactly one bit differs and the underlying store is untouched.
	diff := 0
	for i := range data {
		if data[i] != "abcdef"[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d corrupted bytes, want 1", diff)
	}
	r, err = s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if clean, _ := io.ReadAll(r); string(clean) != "abcdef" {
		t.Fatalf("re-read after corruption drained = %q", clean)
	}
}

func TestWrapStoreCapacityBudget(t *testing.T) {
	s := wrappedStore()
	s.SetCapacityBytes(10)

	putFile(t, s, "a", "12345678") // 8 bytes accepted
	w, err := s.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("12")); err != nil { // exactly at budget
		t.Fatalf("write within budget: %v", err)
	}
	if _, err := w.Write([]byte("3")); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("write past budget: err = %v, want store.ErrDiskFull", err)
	}

	// The budget is monotonic: removing files must not reclaim space,
	// keeping a plan's disk-full point independent of scheduling.
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("3")); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("write after Remove: err = %v, want store.ErrDiskFull (monotonic budget)", err)
	}
}

func TestWrapStoreSlowIO(t *testing.T) {
	s := wrappedStore()
	putFile(t, s, "f", "x")
	const delay = 15 * time.Millisecond
	s.SlowReadsNTimes("f", 1, delay)

	start := time.Now()
	if _, err := s.Open("f"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("slow read took %v, want >= %v", took, delay)
	}
	start = time.Now()
	if _, err := s.Open("f"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay {
		t.Fatalf("second read still slow (%v); latency fault did not drain", took)
	}
}

// TestApplyStoreWrapperFaultDimensions scripts the wrapper-only dimensions
// (latency, capacity) through a Plan, the path chaos scenarios use.
func TestApplyStoreWrapperFaultDimensions(t *testing.T) {
	s := wrappedStore()
	plan := Plan{
		SlowWrites:    []SlowFault{{File: "f", Times: 1, Delay: 10 * time.Millisecond}},
		CapacityBytes: 4,
	}
	plan.ApplyStore(s)

	w, err := s.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := w.Write([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 10*time.Millisecond {
		t.Fatalf("slow write took %v", took)
	}
	if _, err := w.Write([]byte("5")); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("capacity from plan: err = %v, want store.ErrDiskFull", err)
	}
}
