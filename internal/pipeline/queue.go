// Package pipeline implements ParaHash's work-stealing co-processing
// pipeline (§III-E): a three-stage flow — input partitions, consuming and
// producing, output partitions — that both build steps run on. The paper
// synchronises the stages with four shared counters, srv, cns, prd and wrt;
// RunResilientTraced, the one runtime, keeps their roles under one mutex:
//
//   - srv, the tail of the input queue, is the input stage taking the next
//     index up and queueing the item it read; it runs until the source
//     reports io.EOF, so the item count need not be known up front.
//   - cns hands queued items to processors: whichever worker is idle claims
//     the head of the queue (work stealing).
//   - prd marks produced outputs, tracked per item so out-of-order
//     completions never block correctness.
//   - wrt is the output stage's cursor: it writes item wrt as soon as it has
//     been produced, so writes happen in item order.
//
// The paper's pipeline is all-or-nothing: the first error from any stage
// aborts the whole build, discarding every completed partition. Real
// heterogeneous deployments lose processors mid-run and hit transient IO
// faults routinely, and partition-granular construction makes recovery
// cheap — a failed partition is re-read or re-hashed, a failed processor's
// partitions are re-queued onto the survivors. The runtime does that under a
// Policy (the zero Policy retries nothing and never quarantines), plus:
//
//   - cancellation: the run's context cancels promptly and leak-free — no
//     new stage attempt starts, condition waits wake, and every pipeline
//     goroutine exits before the run returns;
//   - a watchdog: Policy.AttemptTimeout bounds each work-stage attempt in
//     wall-clock time, and an expired attempt is abandoned and treated as an
//     ordinary worker fault, feeding the retry/quarantine machinery (a hung
//     device kernel must not hang the whole build);
//   - admission control: Policy.Admission gates each partition's predicted
//     working-set bytes through a weighted semaphore, so concurrent
//     residency queues under a memory budget instead of OOMing;
//   - bounded residency: the input stage reads at most one partition more
//     than the workers' attempts in flight (len(workers), or the sum of
//     Policy.Slots) ahead of them and stops while the output stage is that
//     far behind them; a partition's input is let go the moment it is
//     produced or permanently failed, its output the moment the output stage
//     takes it — so a run holds a constant number of partitions in memory
//     however many it processes.
//
// The package also provides Simulate, a deterministic virtual-time
// scheduler over the same greedy idle-processor-takes-next policy, which
// the experiment harness uses to regenerate the paper's co-processing and
// pipelining figures on any host.
package pipeline

import (
	"context"
	"time"
)

// Stage names used for span recording and fault reporting.
const (
	StageRead    = "read"
	StageCompute = "compute"
	StageWrite   = "write"
)

// SpanRecorder receives wall-clock stage spans from a pipeline run: one call
// per read / compute / write invocation, with the partition index and, for
// compute spans, the worker that ran it (-1 for the IO stages). Retried
// attempts each produce their own span.
// Implementations must be safe for concurrent use from every pipeline
// goroutine.
type SpanRecorder interface {
	StageSpan(stage string, partition, worker int, start, end time.Time)
}

// Worker consumes one input partition and produces one output partition.
// A Worker models a processor in the consuming-and-producing stage; a run
// invokes each worker from its own goroutine only — from Policy.Slots[w] at
// once where that asks for more — so a worker run in one slot may keep
// unsynchronised internal state. The context carries the run's (and, under
// the watchdog, the attempt's) cancellation: workers doing long compute must
// check it periodically and return its error.
type Worker[I, O any] func(ctx context.Context, item I) (O, error)
