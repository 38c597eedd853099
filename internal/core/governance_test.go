package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/manifest"
)

func TestBuildContextAlreadyCanceled(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, reads, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("BuildContext under canceled ctx: %v, want ErrCanceled", err)
	}
	var buf bytes.Buffer
	if err := fastq.WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromReaderContext(ctx, &buf, cfg, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("BuildFromReaderContext under canceled ctx: %v, want ErrCanceled", err)
	}
}

func TestBuildContextTimeoutWrapsCause(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	cause := errors.New("deadline budget spent")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := BuildContext(ctx, reads, cfg)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want both ErrCanceled and the cancellation cause", err)
	}
}

// TestCancelMidStep2JournalsCompletedPartitions stalls the Step 2 committer
// after the save that claims the third partition, cancels the build, and
// verifies the cancellation contract: the error wraps ErrCanceled and keeps
// the cause, the manifest claims at least those three partitions, and a
// -resume build adopts exactly what the manifest claims and produces the same
// graph as an uninterrupted run.
func TestCancelMidStep2JournalsCompletedPartitions(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)

	faultinject.ResetStallCounts()
	t.Setenv(faultinject.StallEnv, "step2.partition:3")

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cause := errors.New("operator interrupt")
	errc := make(chan error, 1)
	go func() {
		_, err := BuildContext(ctx, reads, cfg)
		errc <- err
	}()

	// The committer claims partitions in order, a group at a time, and stalls
	// right after the save that claims the third; wait for it, then cancel.
	mpath := filepath.Join(dir, "manifest.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, err := manifest.Load(mpath); err == nil && len(m.Step2) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for 3 journalled Step 2 partitions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel(cause)

	err := <-errc
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled build returned %v, want ErrCanceled", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("canceled build returned %v, want the cancellation cause preserved", err)
	}
	m, lerr := manifest.Load(mpath)
	if lerr != nil {
		t.Fatal(lerr)
	}
	claimed := len(m.Step2)
	if claimed < 3 {
		t.Fatalf("manifest has %d Step 2 partitions, want at least the 3 claimed before the stall", claimed)
	}

	// Resume must adopt the journalled partitions and finish the build.
	t.Setenv(faultinject.StallEnv, "")
	resumed := cfg
	resumed.Checkpoint.Resume = true
	res, err := BuildContext(context.Background(), reads, resumed)
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	if res.Stats.ResumedPartitions != claimed || res.Stats.RebuiltPartitions != 0 {
		t.Fatalf("resume adopted %d partitions and rebuilt %d, want the %d claimed and none rebuilt",
			res.Stats.ResumedPartitions, res.Stats.RebuiltPartitions, claimed)
	}
	if want := graph.BuildNaive(reads, cfg.K); !res.Graph.Equal(want) {
		t.Fatal("resumed graph diverges from the naive reference")
	}
}

func TestBuildMemoryBudgetBelowDemandStillCompletes(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()

	baseline, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 32 KiB is far below the summed Property-1 table predictions of 16
	// partitions, so partitions must queue for admission (or run alone,
	// clamped) — and the build must still complete, identically.
	budgeted := cfg
	budgeted.MemoryBudgetBytes = 32 << 10
	res, err := Build(reads, budgeted)
	if err != nil {
		t.Fatalf("budgeted build failed: %v", err)
	}
	if !res.Graph.Equal(baseline.Graph) {
		t.Fatal("budgeted graph differs from unbudgeted build")
	}
	s := res.Stats.Step2
	if s.Admissions != int64(cfg.NumPartitions) {
		t.Fatalf("Admissions = %d, want one per partition (%d)", s.Admissions, cfg.NumPartitions)
	}
	if s.PeakAdmittedBytes > budgeted.MemoryBudgetBytes {
		t.Fatalf("PeakAdmittedBytes = %d exceeds budget %d", s.PeakAdmittedBytes, budgeted.MemoryBudgetBytes)
	}
	if s.PeakAdmittedBytes == 0 {
		t.Fatal("PeakAdmittedBytes = 0; admission accounting did not run")
	}
	if res.Stats.PeakAdmittedBytes() != s.PeakAdmittedBytes {
		t.Fatal("Stats.PeakAdmittedBytes() does not surface the Step 2 peak")
	}
}

// TestTwoInFlightStayUnderAOneTableBudget gives a build whose CPU keeps two
// partitions in flight a memory budget that fits one table, the largest
// partition's: the second partition in flight must queue for admission, so
// the admitted bytes never pass the budget, and the graph is the unbudgeted
// build's.
func TestTwoInFlightStayUnderAOneTableBudget(t *testing.T) {
	reads := tinyReads(t)
	cfg := tinyConfig()
	baseline, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slots := step2Slots(cfg, processors(cfg)); slots[0] != 2 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatalf("the CPU runs %d partitions at once, want 2", slots[0])
	}
	largest, ok := cfg.predictedTableBytes(baseline.Stats.Superkmers.MaxKmers)
	if !ok {
		t.Fatal("the largest partition's table cannot be sized")
	}
	budgeted := cfg
	budgeted.MemoryBudgetBytes = largest
	res, err := Build(reads, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(baseline.Graph) {
		t.Fatal("the graph under a one-table budget differs from the unbudgeted one")
	}
	s := res.Stats.Step2
	if s.PeakAdmittedBytes > largest || s.PeakAdmittedBytes == 0 {
		t.Fatalf("PeakAdmittedBytes = %d, want within the one-table budget %d", s.PeakAdmittedBytes, largest)
	}
	if s.Admissions != int64(cfg.NumPartitions) || s.AdmissionBalanceBytes != 0 {
		t.Fatalf("%d admissions, %d bytes left admitted; want one per partition, none left", s.Admissions, s.AdmissionBalanceBytes)
	}
}

func TestBuildMemoryBudgetRejectsNegative(t *testing.T) {
	cfg := tinyConfig()
	cfg.MemoryBudgetBytes = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a negative memory budget")
	}
	cfg = tinyConfig()
	cfg.Resilience.PartitionDeadline = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a negative partition deadline")
	}
}

// TestWatchdogKillsHungProcessorAndRecovers injects a processor whose first
// Step 2 call hangs until its attempt context dies. The watchdog must
// abandon the attempt at the partition deadline, the retry machinery must
// re-run the partition elsewhere, and the build must finish correctly.
func TestWatchdogKillsHungProcessorAndRecovers(t *testing.T) {
	reads := tinyReads(t)
	want := serializeGraph(t, graph.BuildNaive(reads, tinyConfig().K))
	for _, keep := range []bool{true, false} {
		cfg := tinyConfig()
		cfg.NumGPUs = 1 // CPU (proc 0) + GPU0 (proc 1)
		cfg.KeepSubgraphs = keep
		cfg.Resilience.MaxAttempts = 3
		cfg.Resilience.QuarantineAfter = 2
		cfg.Resilience.PartitionDeadline = 50 * time.Millisecond

		plan := faultinject.Plan{
			ProcessorFaults: []faultinject.ProcessorFault{
				{Proc: 1, HangStep2Calls: []int{0}}, // GPU0's first partition wedges
			},
		}
		cfg.ProcWrap = plan.WrapProcessors

		res, err := Build(reads, cfg)
		if err != nil {
			t.Fatalf("keep=%v: build with hung processor failed: %v", keep, err)
		}
		if got := res.Stats.Step2.WatchdogKills; got < 1 {
			t.Fatalf("keep=%v: Step2.WatchdogKills = %d, want >= 1", keep, got)
		}
		if got := res.Stats.TotalWatchdogKills(); got < 1 {
			t.Fatalf("keep=%v: TotalWatchdogKills() = %d, want >= 1", keep, got)
		}
		if res.Stats.TotalRetries() < 1 {
			t.Fatalf("keep=%v: hung partition was not retried", keep)
		}
		if !bytes.Equal(writtenGraph(t, res), want) {
			t.Fatalf("keep=%v: recovered graph diverges from the naive reference", keep)
		}
	}
}
