package core

import (
	"context"
	"fmt"
	"sync"

	"parahash/internal/faultinject"
	"parahash/internal/manifest"
	"parahash/internal/store"
)

// step2Committer is Step 2's group commit. The write stage publishes each
// subgraph without an fsync and hands its record over; one goroutine takes
// everything handed over so far, makes those files durable with one covering
// Sync, claims them all in one manifest save, and loops. A group is simply
// what was published while the previous commit was in flight: an idle disk
// commits partition by partition, a slow one amortises its flushes.
type step2Committer struct {
	mu      sync.Mutex
	pending []manifest.Step2Partition
	err     error         // first failed commit; nothing is committed after it
	wake    chan struct{} // a hand-over is pending; closed by drain
	done    chan struct{}
}

// startStep2Committer starts the commit goroutine; the caller must drain it.
// st is the build's wrapped store, so scripted faults reach the covering Sync.
func startStep2Committer(ctx context.Context, cfg Config, st store.PartitionStore, ck *checkpoint) *step2Committer {
	c := &step2Committer{wake: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for more := true; more; {
			_, more = <-c.wake
			c.mu.Lock()
			group, err := c.pending, c.err
			c.pending = nil
			c.mu.Unlock()
			if len(group) == 0 || err != nil {
				continue // after a failure: orphans a resume overwrites
			}
			if err := commitStep2(ctx, cfg, st, ck, group); err != nil {
				c.mu.Lock()
				c.err = err
				c.mu.Unlock()
			}
		}
	}()
	return c
}

// submit hands a published subgraph's record over. It returns the error that
// stopped the committer, if any: once no claim will ever name them,
// publishing more subgraphs is pointless.
func (c *step2Committer) submit(rec manifest.Step2Partition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, rec)
	select {
	case c.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return c.err
}

// drain commits what is still pending, waits for the goroutine to exit and
// returns the first commit failure. No submit may follow it.
func (c *step2Committer) drain() error {
	close(c.wake)
	<-c.done
	return c.err
}

// commitStep2 makes one group durable and claims it, then fires the
// step2.partition fault points once per claimed partition: hit N fires with at
// least N partitions claimed. Sync and the save are idempotent, so a transient
// store fault retries both within the attempt budget; a full disk or a missing
// file fails the step typed. No checkpoint: nothing claimed, nothing synced.
func commitStep2(ctx context.Context, cfg Config, st store.PartitionStore, ck *checkpoint, group []manifest.Step2Partition) error {
	names := make([]string, len(group))
	for i, rec := range group {
		names[i] = rec.Name
	}
	for attempt := 1; ck != nil; attempt++ {
		err := st.Sync(names...)
		if err == nil {
			err = ck.markStep2(group...)
		}
		if err == nil {
			break
		}
		if attempt >= cfg.Resilience.MaxAttempts || !retryableIOFault(err) {
			return fmt.Errorf("core: committing %d subgraphs from %q (attempt %d): %w", len(names), names[0], attempt, err)
		}
	}
	for range group {
		// A kill here models power loss with the partition already safe; the
		// stall models a build wedged after journalling it.
		faultinject.MaybeCrash("step2.partition")
		if faultinject.MaybeStall(ctx, "step2.partition") != nil {
			return context.Cause(ctx)
		}
	}
	return nil
}
