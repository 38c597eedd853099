package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// ErrNoHealthyWorkers reports that every worker was quarantined before the
// run completed; the partitions that were not yet produced fail with it.
var ErrNoHealthyWorkers = errors.New("pipeline: all workers quarantined")

// ErrAttemptTimeout reports a work-stage attempt the watchdog abandoned
// because it exceeded Policy.AttemptTimeout. It counts as an ordinary worker
// fault: the partition is retried (possibly on another processor) and the
// worker's consecutive-failure count advances toward quarantine.
var ErrAttemptTimeout = errors.New("pipeline: partition attempt deadline exceeded")

// Policy configures a run's fault handling. The zero value retries nothing
// and never quarantines; a run under it still aggregates every partition
// error instead of stopping at the first.
type Policy struct {
	// MaxAttempts is the per-partition attempt budget per stage (read,
	// work, write). 1 — and, normalised, anything below 1 — means fail
	// fast: no retries.
	MaxAttempts int
	// QuarantineAfter quarantines a worker once its consecutive-failure
	// count reaches this threshold: the worker stops claiming partitions
	// and its last partition is re-queued onto the survivors without
	// charging the partition's attempt budget (the fault is the
	// processor's, not the partition's). 0 disables quarantine.
	QuarantineAfter int
	// BackoffSeconds is the virtual-time backoff charged before retry k of
	// a partition: BackoffSeconds * 2^(k-1). It is accounting only — no
	// goroutine sleeps — so runs stay deterministic and host-independent.
	BackoffSeconds float64
	// BackoffJitter spreads each retry's backoff by a uniformly drawn
	// factor in [1-BackoffJitter, 1+BackoffJitter]. Without jitter, N
	// concurrent builds retrying a shared-store fault back off in lockstep
	// and re-collide as a thundering herd; with it their retry schedules
	// decorrelate. Must be in [0, 1]; 0 keeps the exact exponential
	// schedule. Draws come from a generator seeded by BackoffJitterSeed, so
	// a given (seed, fault sequence) charges a reproducible backoff total.
	BackoffJitter float64
	// BackoffJitterSeed seeds the jitter stream; two runs with the same
	// seed and fault sequence charge identical backoff, two runs with
	// different seeds decorrelate.
	BackoffJitterSeed int64
	// Retryable classifies read- and write-stage errors; a non-retryable
	// error fails the partition immediately without burning retries.
	// Worker errors are always eligible for retry because another
	// (heterogeneous) worker may well succeed where this one failed.
	// nil treats every error as retryable.
	Retryable func(error) bool

	// AttemptTimeout is the watchdog deadline for one work-stage attempt in
	// wall-clock time; 0 disables the watchdog. An expired attempt is
	// abandoned (its context is canceled, so cooperative workers return
	// promptly) and charged as a worker fault wrapping ErrAttemptTimeout.
	AttemptTimeout time.Duration
	// Admission, when non-nil, is the memory-budget gate each partition
	// must pass before its read stage loads it: admitted before read,
	// released when the partition reaches a terminal state (written or
	// permanently failed). Reads are sequential, so admission order equals
	// write order and the gate can never deadlock the in-order writer.
	Admission *Gate
	// Slots is the number of attempts each worker runs at once: Slots[w]
	// claim loops drive workers[w], each taking the next queued partition as
	// soon as its last attempt is done. nil, or 0 for a worker, means 1. A
	// worker given more than one must be safe for concurrent use. Quarantine,
	// the consecutive-failure count and Report.Assignment stay per worker.
	Slots []int
	// AdmissionWeight returns a partition's admission weight in bytes
	// (typically its Property-1 predicted hash table footprint); a weight of
	// 0 or less passes without consulting the gate. It is also asked about
	// the index at which read then reports io.EOF, so a source that knows its
	// length weighs that index 0. nil weights every index 1 byte. Ignored
	// without Admission.
	AdmissionWeight func(i int) int64
}

// PartitionError records one failed attempt at one partition. Recovered
// attempts appear in Report.Faults; permanent failures are additionally
// joined into the run's returned error.
type PartitionError struct {
	// Partition is the partition index.
	Partition int
	// Stage is "read", "work" or "write".
	Stage string
	// Worker is the failing worker's index for stage "work", else -1.
	Worker int
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *PartitionError) Error() string {
	if e.Stage == "work" {
		return fmt.Sprintf("pipeline: worker %d on partition %d (attempt %d): %v",
			e.Worker, e.Partition, e.Attempt, e.Err)
	}
	return fmt.Sprintf("pipeline: %s partition %d (attempt %d): %v",
		e.Stage, e.Partition, e.Attempt, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PartitionError) Unwrap() error { return e.Err }

// Report summarises a resilient run for degraded-mode accounting.
type Report struct {
	// Assignment is the worker that produced each partition (-1 if the
	// partition was never produced).
	Assignment []int
	// Written marks each partition whose write stage succeeded — i.e. its
	// output is published through the write closure. Durability is the
	// caller's commit: a checkpointed build resumes from what its manifest
	// claims, not from this.
	Written []bool
	// Retries counts failed attempts that were retried (read, work and
	// write stages combined).
	Retries int
	// Requeues counts partitions re-queued for free because their worker
	// was quarantined mid-partition.
	Requeues int
	// Quarantined lists quarantined worker indices in quarantine order.
	Quarantined []int
	// BackoffSeconds is the total virtual backoff charged across retries.
	BackoffSeconds float64
	// Faults records every failed attempt, including ones that later
	// recovered.
	Faults []PartitionError
	// FailedPartitions lists permanently failed partitions, sorted.
	FailedPartitions []int

	// WatchdogKills counts work-stage attempts the watchdog abandoned
	// because they exceeded Policy.AttemptTimeout.
	WatchdogKills int
	// Canceled reports that the run was cut short by its context; Written
	// still marks exactly the partitions whose outputs were committed.
	Canceled bool
	// CanceledAttempts counts stage attempts cut short by cancellation
	// (their partitions are not charged a failed attempt).
	CanceledAttempts int
	// Admission summarises the memory-budget gate's work (zero without
	// Policy.Admission).
	Admission GateStats
}

// SourceError marks a read failure as the failure of the source itself rather
// than of one item: a stream cannot be rewound, so there is nothing to re-read
// and nothing behind the failure to skip to. Whatever the policy says the
// input stage does not retry it — a second read would resume mid-stream and
// silently drop the bad record — and reads no further; the items already taken
// up drain through the work and write stages and the run returns Err wrapped.
type SourceError struct{ Err error }

// Error implements error.
func (e *SourceError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *SourceError) Unwrap() error { return e.Err }

// slot is the run's state for one item, created when the input stage takes
// the item's index up.
type slot[I, O any] struct {
	in  I // dropped when the work stage is done with the item
	out O // dropped when the output stage takes it

	// held marks an item the input stage has taken up and the work stage has
	// not finished with (produced or permanently failed).
	held     bool
	produced bool  // the item has an output
	written  bool  // the item's write stage succeeded
	failed   error // permanent failure
	attempts int   // charged failed work-stage attempts
	worker   int   // the worker that produced the item, -1 if none did

	weight  int64
	granted bool // the item holds an admission grant of its weight
}

// runState is the shared mutable state of one run, guarded by mu.
type runState[I, O any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	// items has one slot per index the input stage has taken up; total is the
	// item count once the input stage has stopped (the source ended, failed,
	// or the run was stopped), -1 before.
	items     []slot[I, O]
	total     int
	sourceErr error // the SourceError that ended the input, if one did

	queue       []int // items ready for a worker to claim
	consec      []int // consecutive failures per worker
	quarantined []bool
	healthy     int
	abandoned   bool // all workers quarantined
	canceled    bool // the run context was canceled
	writerDone  bool

	// unproduced counts held items, backlog the outputs the output stage has
	// not taken yet; the input stage waits while either is over the read-ahead
	// bound.
	unproduced int
	backlog    int

	pol         Policy
	maxAttempts int
	jitter      *rand.Rand // nil when BackoffJitter == 0
	rep         *Report
}

// chargeRetryLocked books one retried attempt and its exponential virtual
// backoff, spread by the seeded jitter factor when the policy asks for one.
// attempt is the 1-based attempt that just failed.
func (st *runState[I, O]) chargeRetryLocked(attempt int) {
	st.rep.Retries++
	backoff := st.pol.BackoffSeconds * float64(int64(1)<<uint(attempt-1))
	if st.jitter != nil {
		backoff *= 1 + st.pol.BackoffJitter*(2*st.jitter.Float64()-1)
	}
	st.rep.BackoffSeconds += backoff
}

// failLocked marks an item permanently failed (first failure wins) and
// returns its admission grant — a dead partition must not hold budget that
// live partitions are queueing for.
func (st *runState[I, O]) failLocked(i int, err error) {
	if st.items[i].failed == nil {
		st.items[i].failed = err
	}
	st.releaseLocked(i)
	st.settleLocked(i)
}

// settleLocked ends item i's stay in the work stage — it has an output or
// never will: its input is forgotten, so the collector can have it while the
// run goes on, and its read-ahead slot goes back to the input stage. Callers
// broadcast.
func (st *runState[I, O]) settleLocked(i int) {
	it := &st.items[i]
	if !it.held {
		return
	}
	it.held = false
	st.unproduced--
	var zero I
	it.in = zero
}

// releaseLocked returns item i's admission grant exactly once.
func (st *runState[I, O]) releaseLocked(i int) {
	it := &st.items[i]
	if !it.granted {
		return
	}
	it.granted = false
	st.pol.Admission.Release(it.weight)
}

// readyLocked reports whether item i is ready for the output stage: it has
// an output or never will.
func (st *runState[I, O]) readyLocked(i int) bool {
	return i < len(st.items) && (st.items[i].produced || st.items[i].failed != nil)
}

// readOutcome is what the input stage's attempts at one index came to.
type readOutcome int

const (
	itemRead     readOutcome = iota // the item is ready for the workers
	itemFailed                      // permanently failed; on to the next
	inputStopped                    // the source ended or failed here, or the run is stopping
)

// untakeLocked gives index i back: the source ended (or failed) there, so
// the slot the input stage took up for it never was an item.
func (st *runState[I, O]) untakeLocked(i int) {
	st.releaseLocked(i)
	st.settleLocked(i)
	st.items = st.items[:i]
}

// abandonLocked fails every item that has no output yet; called when the
// last healthy worker is quarantined. cause is the fault that retired the
// final worker, kept in the chain so callers can still errors.Is the
// underlying device error.
func (st *runState[I, O]) abandonLocked(cause error) {
	st.abandoned = true
	for i := range st.items {
		if it := &st.items[i]; !it.produced && it.failed == nil {
			st.failLocked(i, fmt.Errorf("pipeline: partition %d: %w (last worker fault: %w)",
				i, ErrNoHealthyWorkers, cause))
		}
	}
}

// RunResilientTraced pipelines the items of a source through three
// overlapped stages — sequential read, work-stealing workers, sequential
// in-order write — with pol's fault handling on top. The source's length is
// not known up front: read(i) is called for i = 0, 1, … and ends the run by
// returning io.EOF, bare. rec, when non-nil, observes every stage attempt
// (retries included).
//
//   - a failed read or write is retried up to pol.MaxAttempts times with
//     deterministic virtual-time backoff — except a read that fails with a
//     *SourceError, which ends the input: nothing more is read, what was
//     taken up drains, and the run returns the error;
//   - a failed worker attempt re-queues the partition (any worker may pick
//     it up) until the partition's attempt budget is exhausted;
//   - a work-stage attempt that outlives pol.AttemptTimeout is abandoned by
//     the watchdog and charged as a worker fault (wrapping
//     ErrAttemptTimeout), so a hung processor feeds the same retry and
//     quarantine machinery as a failing one;
//   - a worker whose consecutive-failure count reaches pol.QuarantineAfter
//     is quarantined — it stops claiming work and its partition is
//     re-queued for free, so the build degrades gracefully onto the
//     surviving processors and still succeeds with >= 1 healthy worker; a
//     worker running several attempts (pol.Slots) is quarantined once, and
//     each of its attempts still running re-queues its partition for free
//     if it fails too;
//   - each partition of positive weight passes pol.Admission (when set)
//     before its read stage, bounding concurrent working-set bytes under the
//     memory budget;
//   - the read stage stays at most S+1 partitions ahead of the work stage
//     (read but neither produced nor permanently failed), with or without an
//     admission gate, and stops reading while more than S outputs wait for
//     the output stage, S being the attempts the workers run at once — the
//     sum of pol.Slots, len(workers) without it; inputs and outputs are
//     dropped as soon as the next stage is done with them;
//   - permanently failed partitions do not abort the run: the remaining
//     partitions are still processed and written in order, and all
//     permanent errors are aggregated (errors.Join) into the returned
//     error;
//   - canceling ctx stops the run promptly and leak-free: in-flight stage
//     attempts are released via their attempt contexts, no new attempt
//     starts, already-written partitions stay committed (Report.Written),
//     and the returned error wraps the context's cause.
//
// The Report is always valid, even when an error is returned; its
// per-partition slices have one entry per item the input stage took up.
func RunResilientTraced[I, O any](ctx context.Context, read func(i int) (I, error), workers []Worker[I, O], write func(i int, o O) error, pol Policy, rec SpanRecorder) (Report, error) {
	rep := Report{}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(workers) == 0 {
		return rep, fmt.Errorf("pipeline: no workers")
	}
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	if pol.BackoffJitter < 0 || pol.BackoffJitter > 1 {
		return rep, fmt.Errorf("pipeline: BackoffJitter=%g out of range [0,1]", pol.BackoffJitter)
	}
	retryable := pol.Retryable
	if retryable == nil {
		retryable = func(error) bool { return true }
	}
	weigh := pol.AdmissionWeight
	if weigh == nil {
		weigh = func(int) int64 { return 1 }
	}
	// claimants has one entry per attempt the workers run at once: the
	// worker it drives.
	var claimants []int
	for w := range workers {
		n := 1
		if w < len(pol.Slots) && pol.Slots[w] > 1 {
			n = pol.Slots[w]
		}
		for ; n > 0; n-- {
			claimants = append(claimants, w)
		}
	}

	st := &runState[I, O]{
		total:       -1,
		consec:      make([]int, len(workers)),
		quarantined: make([]bool, len(workers)),
		healthy:     len(workers),
		pol:         pol,
		maxAttempts: pol.MaxAttempts,
		rep:         &rep,
	}
	if pol.BackoffJitter > 0 {
		// One seeded stream per run, consumed in retry order under st.mu, so
		// the charged total is a deterministic function of (seed, fault
		// sequence) while distinct seeds decorrelate concurrent builds.
		st.jitter = rand.New(rand.NewSource(pol.BackoffJitterSeed))
	}
	st.cond = sync.NewCond(&st.mu)

	// runCtx cancels with the caller's ctx, and additionally when the run
	// abandons (all workers quarantined) so an admission wait never blocks a
	// run that can no longer make progress.
	runCtx, runCancel := context.WithCancelCause(ctx)
	defer runCancel(nil)

	// The watcher translates the caller's cancellation into shared state and
	// wakes every condition wait. It watches the caller's ctx, not runCtx, so
	// an internal abandon is not misreported as a cancellation.
	watcherStop := make(chan struct{})
	var watcherWg sync.WaitGroup
	watcherWg.Add(1)
	go func() {
		defer watcherWg.Done()
		select {
		case <-ctx.Done():
			st.mu.Lock()
			st.canceled = true
			st.cond.Broadcast()
			st.mu.Unlock()
		case <-watcherStop:
		}
	}()

	var wg sync.WaitGroup

	// Stage 1: input. Takes indices up in order — acquiring each one's
	// admission grant first — until the source ends, retrying transient
	// faults; a permanently unreadable partition is recorded and skipped.
	// However it stops, what it took up by then is the run's item count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			st.mu.Lock()
			st.total = len(st.items)
			st.cond.Broadcast()
			st.mu.Unlock()
		}()
		for i := 0; ; i++ {
			st.mu.Lock()
			// Park on the read-ahead bound before asking for admission, so a
			// parked reader holds no grant.
			for (st.unproduced > len(claimants) || st.backlog > len(claimants)) && !st.abandoned && !st.canceled {
				st.cond.Wait()
			}
			if st.abandoned || st.canceled {
				st.mu.Unlock()
				return
			}
			// The source cannot say whether item i exists before it is read, so
			// the index at which it ends is weighed and taken up like an item —
			// a source that knows its length weighs that index 0 — and given
			// back once read reports the end.
			w := weigh(i)
			st.items = append(st.items, slot[I, O]{held: true, worker: -1, weight: w})
			st.unproduced++
			st.mu.Unlock()

			if pol.Admission != nil && w > 0 {
				if err := pol.Admission.Acquire(runCtx, w); err != nil {
					// Canceled or abandoned while queued.
					st.mu.Lock()
					if st.canceled {
						st.rep.CanceledAttempts++
					}
					st.mu.Unlock()
					return
				}
				st.mu.Lock()
				st.items[i].granted = true
				if st.abandoned || st.canceled {
					st.releaseLocked(i)
					st.mu.Unlock()
					return
				}
				st.mu.Unlock()
			}

			item, outcome := func() (I, readOutcome) {
				var none I
				for attempt := 1; ; attempt++ {
					if runCtx.Err() != nil {
						st.mu.Lock()
						st.rep.CanceledAttempts++
						st.releaseLocked(i)
						st.mu.Unlock()
						return none, inputStopped
					}
					start := time.Now()
					item, err := read(i)
					if err == io.EOF {
						st.mu.Lock()
						st.untakeLocked(i)
						st.mu.Unlock()
						return none, inputStopped
					}
					if rec != nil {
						rec.StageSpan(StageRead, i, -1, start, time.Now())
					}
					if err == nil {
						return item, itemRead
					}
					st.mu.Lock()
					st.rep.Faults = append(st.rep.Faults,
						PartitionError{Partition: i, Stage: "read", Worker: -1, Attempt: attempt, Err: err})
					var srcErr *SourceError
					if errors.As(err, &srcErr) {
						st.sourceErr = fmt.Errorf("pipeline: the input failed at item %d: %w", i, err)
						st.untakeLocked(i)
						st.mu.Unlock()
						return none, inputStopped
					}
					if attempt >= st.maxAttempts || !retryable(err) {
						st.failLocked(i, fmt.Errorf("pipeline: reading partition %d (attempt %d/%d): %w",
							i, attempt, st.maxAttempts, err))
						st.cond.Broadcast()
						st.mu.Unlock()
						return none, itemFailed
					}
					st.chargeRetryLocked(attempt)
					st.mu.Unlock()
				}
			}()
			if outcome == inputStopped {
				return
			}
			if outcome == itemFailed {
				continue
			}
			st.mu.Lock()
			if st.abandoned || st.canceled {
				st.releaseLocked(i)
				st.mu.Unlock()
				return
			}
			st.items[i].in = item
			st.queue = append(st.queue, i)
			st.cond.Broadcast()
			st.mu.Unlock()
		}
	}()

	// Stage 2: workers. Each claimant claims queued partitions for its worker
	// until the worker is quarantined or the run completes. Failures re-queue
	// the partition; crossing the quarantine threshold retires the worker;
	// the watchdog abandons attempts that outlive pol.AttemptTimeout.
	for _, w := range claimants {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				st.mu.Lock()
				for len(st.queue) == 0 && !st.writerDone && !st.quarantined[w] && !st.abandoned && !st.canceled {
					st.cond.Wait()
				}
				if st.writerDone || st.quarantined[w] || st.abandoned || st.canceled {
					st.mu.Unlock()
					return
				}
				id := st.queue[0]
				st.queue = st.queue[1:]
				in := st.items[id].in
				st.mu.Unlock()

				start := time.Now()
				out, err := runAttempt(runCtx, pol.AttemptTimeout, workers[w], in)
				if rec != nil {
					rec.StageSpan(StageCompute, id, w, start, time.Now())
				}

				st.mu.Lock()
				if err == nil {
					st.consec[w] = 0
					it := &st.items[id]
					it.out, it.produced, it.worker = out, true, w
					st.backlog++
					st.settleLocked(id)
					st.cond.Broadcast()
					st.mu.Unlock()
					continue
				}
				if runCtx.Err() != nil && !errors.Is(err, ErrAttemptTimeout) {
					// The run is being canceled (or abandoned); the aborted
					// attempt is not the partition's fault.
					st.rep.CanceledAttempts++
					st.mu.Unlock()
					return
				}
				attempt := st.items[id].attempts + 1
				st.rep.Faults = append(st.rep.Faults,
					PartitionError{Partition: id, Stage: "work", Worker: w, Attempt: attempt, Err: err})
				if errors.Is(err, ErrAttemptTimeout) {
					st.rep.WatchdogKills++
				}
				if st.quarantined[w] {
					// Another of the worker's attempts has retired it: this
					// partition goes back for free, as that one's did.
					if !st.abandoned {
						st.rep.Requeues++
						st.queue = append(st.queue, id)
						st.cond.Broadcast()
					}
					st.mu.Unlock()
					return
				}
				st.consec[w]++
				if st.pol.QuarantineAfter > 0 && st.consec[w] >= st.pol.QuarantineAfter {
					st.quarantined[w] = true
					st.rep.Quarantined = append(st.rep.Quarantined, w)
					st.healthy--
					if st.healthy > 0 {
						// The processor is at fault, not the partition:
						// re-queue without charging its attempt budget.
						st.rep.Requeues++
						st.queue = append(st.queue, id)
					} else {
						st.abandonLocked(err)
						runCancel(ErrNoHealthyWorkers)
					}
					st.cond.Broadcast()
					st.mu.Unlock()
					return
				}
				st.items[id].attempts = attempt
				if attempt >= st.maxAttempts {
					st.failLocked(id, fmt.Errorf("pipeline: worker %d on partition %d (attempt %d/%d): %w",
						w, id, attempt, st.maxAttempts, err))
				} else {
					st.chargeRetryLocked(attempt)
					st.queue = append(st.queue, id)
				}
				st.cond.Broadcast()
				st.mu.Unlock()
			}
		}(w)
	}

	// Stage 3: output. Writes produced partitions in order, skipping
	// permanently failed ones so one bad partition never blocks the rest,
	// until the input stage has stopped and everything it took up is dealt
	// with. Cancellation stops it before the next partition; the in-flight
	// write is allowed to finish so committed outputs are never
	// half-published.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			st.mu.Lock()
			// Index i is past the end once the input stage has stopped short
			// of it.
			for !st.readyLocked(i) && !st.canceled && !(st.total >= 0 && i >= st.total) {
				st.cond.Wait()
			}
			if !st.readyLocked(i) {
				canceled := st.canceled
				st.mu.Unlock()
				if canceled {
					return
				}
				break
			}
			if st.canceled && !st.items[i].produced {
				st.mu.Unlock()
				return
			}
			if st.items[i].failed != nil {
				st.mu.Unlock()
				continue
			}
			// The writer's copy is the only one from here on.
			out := st.items[i].out
			var zero O
			st.items[i].out = zero
			st.backlog--
			st.cond.Broadcast()
			st.mu.Unlock()

			for attempt := 1; ; attempt++ {
				if runCtx.Err() != nil {
					st.mu.Lock()
					st.rep.CanceledAttempts++
					st.mu.Unlock()
					return
				}
				start := time.Now()
				err := write(i, out)
				if rec != nil {
					rec.StageSpan(StageWrite, i, -1, start, time.Now())
				}
				if err == nil {
					st.mu.Lock()
					st.items[i].written = true
					st.releaseLocked(i)
					st.mu.Unlock()
					break
				}
				st.mu.Lock()
				st.rep.Faults = append(st.rep.Faults,
					PartitionError{Partition: i, Stage: "write", Worker: -1, Attempt: attempt, Err: err})
				if attempt >= st.maxAttempts || !retryable(err) {
					st.failLocked(i, fmt.Errorf("pipeline: writing partition %d (attempt %d/%d): %w",
						i, attempt, st.maxAttempts, err))
					st.mu.Unlock()
					break
				}
				st.chargeRetryLocked(attempt)
				st.mu.Unlock()
			}
		}
		st.mu.Lock()
		st.writerDone = true
		st.cond.Broadcast()
		st.mu.Unlock()
	}()

	wg.Wait()
	close(watcherStop)
	watcherWg.Wait()

	// Every goroutine is gone, so the state needs no lock from here on. Return
	// any grants still held (e.g. partitions admitted but never reaching a
	// terminal state before cancellation), so a shared gate is left balanced.
	n := len(st.items)
	rep.Assignment = make([]int, n)
	rep.Written = make([]bool, n)
	written := 0
	for i := range st.items {
		st.releaseLocked(i)
		rep.Assignment[i] = st.items[i].worker
		rep.Written[i] = st.items[i].written
		if st.items[i].written {
			written++
		}
	}
	if pol.Admission != nil {
		rep.Admission = pol.Admission.Stats()
	}

	if st.canceled {
		rep.Canceled = true
		return rep, fmt.Errorf("pipeline: run canceled after %d of %d partitions written: %w",
			written, n, context.Cause(ctx))
	}

	var errs []error
	for i := range st.items {
		if e := st.items[i].failed; e != nil {
			rep.FailedPartitions = append(rep.FailedPartitions, i)
			errs = append(errs, e)
		}
	}
	var err error
	if len(errs) > 0 {
		err = fmt.Errorf("pipeline: %d of %d partitions failed: %w", len(errs), n, errors.Join(errs...))
	}
	if st.sourceErr != nil {
		err = errors.Join(st.sourceErr, err)
	}
	return rep, err
}

// runAttempt invokes one work-stage attempt under the watchdog: with a
// positive timeout the worker runs under a deadline context and is abandoned
// — its context canceled, its eventual result discarded — once the deadline
// expires. A worker that returns its own deadline error is normalised to the
// same ErrAttemptTimeout, so cooperative and abandoned expiries are
// indistinguishable to the fault accounting.
func runAttempt[I, O any](ctx context.Context, timeout time.Duration, worker Worker[I, O], item I) (O, error) {
	if timeout <= 0 {
		return worker(ctx, item)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type result struct {
		out O
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := worker(actx, item)
		ch <- result{out, err}
	}()
	var zero O
	select {
	case r := <-ch:
		if r.err != nil && ctx.Err() == nil && errors.Is(r.err, context.DeadlineExceeded) {
			return zero, fmt.Errorf("%w (after %v): %v", ErrAttemptTimeout, timeout, r.err)
		}
		return r.out, r.err
	case <-actx.Done():
		if ctx.Err() != nil {
			// The whole run is stopping, not just this attempt.
			return zero, context.Cause(ctx)
		}
		return zero, fmt.Errorf("%w (after %v)", ErrAttemptTimeout, timeout)
	}
}
