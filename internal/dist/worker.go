package dist

import (
	"context"
	"io"

	"parahash/internal/core"
	"parahash/internal/faultinject"
)

// CrashPoint is the worker loop's fault-injection point, armed per
// partition: PARAHASH_CRASH_POINT=dist.partition:<n> SIGKILLs the worker
// process on the n-th partition it starts, PARAHASH_STALL_POINT wedges it
// there — mid-lease, after its last heartbeat — until it is killed.
const CrashPoint = "dist.partition"

// RunWorker is the worker main loop, single-threaded by design: construct
// work and protocol handling interleave on one goroutine, so a worker
// wedged inside a partition stops heartbeating and its lease expires — the
// coordinator needs no extra liveness signal beyond the protocol itself.
//
// The loop announces itself with hello, then serves leases: for each
// assigned partition it heartbeats, constructs the subgraph, publishes it
// under the lease's fenced name (never the canonical one) and reports
// done. A construct failure is reported as an error message and the rest
// of the lease is abandoned for the coordinator to re-assign. in closing,
// a shutdown message, or ctx ending terminate the loop.
func RunWorker(ctx context.Context, id string, cfg core.Config, in <-chan Message, send func(Message) error) error {
	// One construction context for the process's life: every partition it
	// is leased is built on the same processor, table and store handle.
	w, err := core.NewDistWorker(cfg)
	if err != nil {
		return err
	}
	if err := send(Message{Type: TypeHello, Worker: id}); err != nil {
		return err
	}
	for {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case m, ok := <-in:
			if !ok || m.Type == TypeShutdown {
				return nil
			}
			if m.Type != TypeAssign {
				continue
			}
			if err := serveLease(ctx, id, w, m, send); err != nil {
				return err
			}
		}
	}
}

// serveLease works through one assigned partition range under its fencing
// token.
func serveLease(ctx context.Context, id string, w *core.DistWorker, lease Message, send func(Message) error) error {
	for _, p := range lease.Partitions {
		if err := send(Message{Type: TypeHeartbeat, Worker: id, Token: lease.Token}); err != nil {
			return err
		}
		// The armed stall point wedges the worker here — after its last
		// heartbeat, holding the lease — modelling a hung process the
		// coordinator can only reclaim by lease expiry.
		if err := faultinject.MaybeStall(ctx, CrashPoint); err != nil {
			return err
		}
		work, err := w.Construct(ctx, p, core.FencedName(p, lease.Token))
		if err != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			// Return the lease: the coordinator revokes it and re-assigns
			// the unfinished partitions (to this worker or a survivor).
			return send(Message{Type: TypeError, Worker: id, Token: lease.Token,
				Partition: p, Error: err.Error()})
		}
		// The fenced file is published; a kill here models a worker dying
		// with its result on disk but unreported — the replacement redoes
		// the partition under a new token and the orphan is swept.
		faultinject.MaybeCrash(CrashPoint)
		if err := send(Message{Type: TypeDone, Worker: id, Token: lease.Token,
			Partition: p, Work: &work}); err != nil {
			return err
		}
	}
	return nil
}

// ServeStdio runs the worker loop over a JSON-line pipe pair — the
// subprocess side of ProcTransport. The worker is single-threaded, so
// writes to w need no locking; everything else the process prints must go
// to stderr, stdout is the protocol channel.
func ServeStdio(ctx context.Context, id string, cfg core.Config, r io.Reader, w io.Writer) error {
	in := make(chan Message, 16)
	go func() {
		// A read error just ends the stream; the closed channel stops the
		// loop the same way a shutdown message would.
		_ = ReadMessages(r, in)
	}()
	return RunWorker(ctx, id, cfg, in, func(m Message) error { return WriteMessage(w, m) })
}
