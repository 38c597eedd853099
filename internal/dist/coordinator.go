package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"parahash/internal/core"
	"parahash/internal/manifest"
)

// ErrWorkersExhausted reports a build with unfinished partitions and no
// live workers left to lease them to — every worker died, hung past its
// lease, or was quarantined. The checkpoint remains resumable.
var ErrWorkersExhausted = errors.New("dist: all workers dead or quarantined")

// ErrAttemptsExhausted reports a partition that failed on every worker it
// was leased to, exceeding the per-partition attempt budget — the
// process-granularity analogue of the pipeline's retry exhaustion.
var ErrAttemptsExhausted = errors.New("dist: partition attempts exhausted")

// Options tunes the coordinator. Zero values get defaults sized for local
// worker fleets.
type Options struct {
	// Workers is the fleet size (required, >= 1).
	Workers int
	// ChunkParts is the maximum partitions per lease. Default: pending
	// partitions / (4·Workers), at least 1 — small chunks keep the fleet
	// balanced and bound the work lost to one revocation.
	ChunkParts int
	// LeaseMS is the lease duration in milliseconds; a worker that does
	// not heartbeat within it is presumed dead. Default 2000.
	LeaseMS int64
	// MaxWorkerStrikes quarantines a worker after this many failures
	// (reported errors or corrupt results). Default 2.
	MaxWorkerStrikes int
	// MaxPartitionAttempts bounds how many times one partition may be
	// leased before the build fails with ErrAttemptsExhausted. Default 4.
	MaxPartitionAttempts int
	// Logf, when set, receives coordinator progress lines.
	Logf func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
}

func (o Options) withDefaults(pending int) Options {
	if o.ChunkParts <= 0 {
		o.ChunkParts = pending / (4 * o.Workers)
		if o.ChunkParts < 1 {
			o.ChunkParts = 1
		}
	}
	if o.LeaseMS <= 0 {
		o.LeaseMS = 2000
	}
	if o.MaxWorkerStrikes <= 0 {
		o.MaxWorkerStrikes = 2
	}
	if o.MaxPartitionAttempts <= 0 {
		o.MaxPartitionAttempts = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// leaseState is the coordinator's view of one outstanding lease.
type leaseState struct {
	token  int64
	parts  []int
	done   map[int]bool
	expiry time.Time
}

func (l *leaseState) unfinished() []int {
	var out []int
	for _, p := range l.parts {
		if !l.done[p] {
			out = append(out, p)
		}
	}
	return out
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	id      string
	conn    Conn
	alive   bool
	strikes int
	lease   *leaseState
}

// event is one fan-in item from a worker connection.
type event struct {
	wid    int
	msg    Message
	closed bool
}

// coordinator runs one distributed Step 2.
type coordinator struct {
	ctx     context.Context
	plan    *core.DistPlan
	opts    Options
	stats   core.DistStats
	workers []*workerState
	events  chan event
	open    int // connections whose fan-in pump has not yet reported closed

	queue     []int       // unleased partitions, kept sorted
	attempts  map[int]int // lease grants per partition
	remaining int         // partitions not yet journalled
}

// Run executes distributed Step 2 for a prepared plan: start opts.Workers
// workers through the transport, lease partition ranges (each grant saved
// with its token before the worker hears about it), promote verified fenced
// results into the plan's group commit, and survive worker death, hangs and
// partitions by lease expiry plus re-assignment. On success every partition
// is journalled, fenced orphans are swept and no leases remain outstanding.
// On every path the plan's committer is drained first: when Run returns,
// each promoted partition is claimed or never will be.
func Run(ctx context.Context, plan *core.DistPlan, tr Transport, opts Options) (core.DistStats, error) {
	if opts.Workers < 1 {
		return core.DistStats{}, fmt.Errorf("dist: at least one worker required")
	}
	pending := plan.Pending()
	opts = opts.withDefaults(len(pending))
	c := &coordinator{
		ctx:       ctx,
		plan:      plan,
		opts:      opts,
		stats:     core.DistStats{Workers: opts.Workers},
		events:    make(chan event, 4*opts.Workers+16),
		queue:     pending,
		attempts:  make(map[int]int),
		remaining: len(pending),
	}
	err := c.run(ctx, tr)
	if ferr := plan.Flush(); err == nil {
		err = ferr
	}
	return c.stats, err
}

func (c *coordinator) run(ctx context.Context, tr Transport) error {
	for i := 0; i < c.opts.Workers; i++ {
		id := fmt.Sprintf("w%d", i)
		conn, err := tr.Start(ctx, id)
		if err != nil {
			c.shutdown(false)
			return fmt.Errorf("dist: starting worker %s: %w", id, err)
		}
		c.stats.Spawned++
		c.workers = append(c.workers, &workerState{id: id, conn: conn, alive: true})
		c.open++
		go func(wid int, conn Conn) {
			for m := range conn.Recv() {
				c.events <- event{wid: wid, msg: m}
			}
			c.events <- event{wid: wid, closed: true}
		}(i, conn)
	}

	tick := time.Duration(c.opts.LeaseMS) * time.Millisecond / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for c.remaining > 0 {
		select {
		case <-ctx.Done():
			c.shutdown(false)
			return context.Cause(ctx)
		case <-ticker.C:
			if err := c.checkExpiries(); err != nil {
				c.shutdown(false)
				return err
			}
		case e := <-c.events:
			if err := c.handle(e); err != nil {
				c.shutdown(false)
				return err
			}
		}
		if c.remaining > 0 && c.countAlive() == 0 {
			c.shutdown(false)
			return fmt.Errorf("%w: %d partitions unfinished", ErrWorkersExhausted, c.remaining)
		}
	}
	c.shutdown(true)
	if err := c.plan.Flush(); err != nil {
		return err
	}
	swept, err := c.plan.SweepFenced()
	if err != nil {
		return fmt.Errorf("dist: sweeping fenced orphans: %w", err)
	}
	if len(swept) > 0 {
		c.opts.Logf("dist: swept %d fenced orphan(s): %v", len(swept), swept)
	}
	c.plan.Leases((*manifest.Manifest).ClearLeases)
	return c.plan.SaveManifest()
}

// handle processes one worker event.
func (c *coordinator) handle(e event) error {
	w := c.workers[e.wid]
	if e.closed {
		c.open--
		if w.alive {
			// The worker exited on its own — crash or SIGKILL. Its lease,
			// if any, is revoked immediately; no need to wait for expiry.
			c.opts.Logf("dist: worker %s exited unexpectedly", w.id)
			c.markDead(w)
		}
		return c.grantIdle()
	}
	if !w.alive {
		// A message raced the worker's death; late dones are handled by
		// the fencing check below, everything else is noise.
		if e.msg.Type == TypeDone {
			return c.handleDone(w, e.msg)
		}
		return nil
	}
	switch e.msg.Type {
	case TypeHello:
		return c.grant(w)
	case TypeHeartbeat:
		if w.lease != nil && w.lease.token == e.msg.Token {
			// Renewed here only, never saved: lease records are advisory,
			// and a restarted coordinator clears them before leasing anything.
			w.lease.expiry = c.opts.now().Add(c.leaseDur())
		}
	case TypeDone:
		return c.handleDone(w, e.msg)
	case TypeError:
		c.opts.Logf("dist: worker %s failed partition %d: %s", w.id, e.msg.Partition, e.msg.Error)
		return c.strike(w)
	}
	return nil
}

// handleDone promotes a current-token result or fences off a stale one.
func (c *coordinator) handleDone(w *workerState, m Message) error {
	if w.lease == nil || w.lease.token != m.Token {
		// A zombie: the lease this result was built under is gone. The
		// write is a no-op by construction — it only ever touched the
		// token-suffixed fenced name — so just count it and drop the file.
		c.stats.FencedWrites++
		c.opts.Logf("dist: fenced stale write from %s (partition %d, token %d)", w.id, m.Partition, m.Token)
		return c.plan.DiscardFenced(m.Partition, m.Token)
	}
	if !covers(w.lease, m.Partition) || w.lease.done[m.Partition] {
		// A result for a partition the lease does not hold is a protocol
		// violation; treat it as a worker failure.
		c.opts.Logf("dist: worker %s reported partition %d outside its lease", w.id, m.Partition)
		return c.strike(w)
	}
	var counters core.Step2Counters
	if m.Counters != nil {
		counters = *m.Counters
	}
	if err := c.plan.PromoteFenced(c.ctx, m.Partition, m.Token, m.Distinct, counters); err != nil {
		if !errors.Is(err, core.ErrFencedRefused) {
			return err // the group commit failed: nothing more can be claimed
		}
		// The fenced bytes did not verify — the worker is lying or its
		// storage is bad. The partition goes back in the pool.
		c.opts.Logf("dist: promoting partition %d from %s failed: %v", m.Partition, w.id, err)
		return c.strike(w)
	}
	w.lease.done[m.Partition] = true
	c.remaining--
	if len(w.lease.unfinished()) == 0 {
		// The drop rides on the next save: this worker's next grant, or a
		// group claim.
		c.dropLease(w)
		return c.grant(w)
	}
	return nil
}

// checkExpiries revokes leases whose holders stopped heartbeating. An
// expired worker is treated as dead: only Kill reclaims a hung process,
// and a live-but-silent one is fenced off anyway.
func (c *coordinator) checkExpiries() error {
	now := c.opts.now()
	for _, w := range c.workers {
		if w.alive && w.lease != nil && now.After(w.lease.expiry) {
			c.stats.LeaseExpiries++
			c.opts.Logf("dist: lease %d (worker %s) expired; revoking %v",
				w.lease.token, w.id, w.lease.unfinished())
			c.markDead(w)
		}
	}
	return c.grantIdle()
}

// markDead revokes a worker's lease, requeues its unfinished partitions
// and kills the connection.
func (c *coordinator) markDead(w *workerState) {
	w.alive = false
	c.revoke(w)
	w.conn.Kill()
}

// strike books one failure against a live worker: its lease is revoked and
// requeued, and enough strikes quarantine it from the fleet.
func (c *coordinator) strike(w *workerState) error {
	w.strikes++
	c.revoke(w)
	if w.strikes >= c.opts.MaxWorkerStrikes {
		c.stats.WorkerQuarantines++
		c.opts.Logf("dist: quarantining worker %s after %d strikes", w.id, w.strikes)
		w.alive = false
		w.conn.Kill()
		return c.grantIdle()
	}
	return c.grantIdle()
}

// revoke drops a worker's lease and requeues its unfinished partitions.
func (c *coordinator) revoke(w *workerState) {
	if w.lease == nil {
		return
	}
	unfinished := w.lease.unfinished()
	c.stats.Reassignments += int64(len(unfinished))
	c.queue = append(c.queue, unfinished...)
	sort.Ints(c.queue)
	// Dropped in memory; the next save persists it. The stale record is
	// advisory either way: a fresh coordinator clears all leases.
	c.dropLease(w)
}

// dropLease forgets w's lease, in memory: the next save persists the drop.
func (c *coordinator) dropLease(w *workerState) {
	token := w.lease.token
	c.plan.Leases(func(m *manifest.Manifest) { m.DropLease(token) })
	w.lease = nil
}

// grantIdle offers work to every idle live worker.
func (c *coordinator) grantIdle() error {
	for _, w := range c.workers {
		if w.alive && w.lease == nil {
			if err := c.grant(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// grant leases the next contiguous chunk of queued partitions to w. The
// lease is journalled in the manifest — fencing token minted, expiry
// stamped — and saved strictly before the assign message is sent: the one
// lease save safety needs, because a worker must never act on a token above
// the durable high-water, or a restarted coordinator could mint it again.
func (c *coordinator) grant(w *workerState) error {
	if len(c.queue) == 0 || !w.alive || w.lease != nil {
		return nil
	}
	chunk := c.nextChunk()
	for _, p := range chunk {
		c.attempts[p]++
		if c.attempts[p] > c.opts.MaxPartitionAttempts {
			return fmt.Errorf("%w: partition %d failed %d leases",
				ErrAttemptsExhausted, p, c.attempts[p]-1)
		}
	}
	expiry := c.opts.now().Add(c.leaseDur())
	var token int64
	c.plan.Leases(func(m *manifest.Manifest) {
		token = m.NextLeaseToken()
		m.SetLease(manifest.Lease{Start: chunk[0], Count: len(chunk), Worker: w.id,
			Token: token, ExpiryUnixMS: expiry.UnixMilli()})
	})
	w.lease = &leaseState{
		token:  token,
		parts:  chunk,
		done:   make(map[int]bool, len(chunk)),
		expiry: expiry,
	}
	if err := c.plan.SaveManifest(); err != nil {
		return err
	}
	c.stats.LeaseGrants++
	if err := w.conn.Send(Message{Type: TypeAssign, Token: token,
		Partitions: chunk, LeaseMS: c.opts.LeaseMS}); err != nil {
		// Unreachable worker: revoke and let survivors pick the chunk up.
		c.opts.Logf("dist: worker %s unreachable on assign: %v", w.id, err)
		c.markDead(w)
	}
	return nil
}

// nextChunk pops the longest contiguous ascending run from the front of
// the queue, capped at ChunkParts — leases are contiguous ranges by
// construction, matching the manifest's lease record shape.
func (c *coordinator) nextChunk() []int {
	n := 1
	for n < len(c.queue) && n < c.opts.ChunkParts && c.queue[n] == c.queue[n-1]+1 {
		n++
	}
	chunk := append([]int(nil), c.queue[:n]...)
	c.queue = c.queue[n:]
	return chunk
}

func (c *coordinator) leaseDur() time.Duration {
	return time.Duration(c.opts.LeaseMS) * time.Millisecond
}

func (c *coordinator) countAlive() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// shutdown stops the fleet and drains the fan-in so no goroutine leaks: a
// graceful pass offers shutdown messages to live workers, then everything
// is killed, the event stream drained to its close, and every connection
// reaped.
func (c *coordinator) shutdown(graceful bool) {
	for _, w := range c.workers {
		if graceful && w.alive {
			_ = w.conn.Send(Message{Type: TypeShutdown})
		} else {
			w.conn.Kill()
		}
	}
	deadline := time.After(2 * time.Second)
	for c.open > 0 {
		select {
		case e := <-c.events:
			if e.closed {
				c.open--
			}
		case <-deadline:
			// Stragglers get the axe; keep draining afterwards.
			for _, w := range c.workers {
				w.conn.Kill()
			}
			deadline = time.After(10 * time.Second)
		}
	}
	for _, w := range c.workers {
		w.conn.Kill()
		_ = w.conn.Wait()
	}
}

// covers reports whether the lease holds partition p.
func covers(l *leaseState, p int) bool {
	for _, q := range l.parts {
		if q == p {
			return true
		}
	}
	return false
}
