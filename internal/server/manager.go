package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"parahash"
	"parahash/internal/atomicfile"
	"parahash/internal/core"
	"parahash/internal/device"
	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/pipeline"
	"parahash/internal/store"
)

// Typed admission failures. Both map to HTTP 429 with a Retry-After hint:
// the server sheds load at the door instead of queueing without bound and
// OOMing under it.
var (
	// ErrQueueFull reports that the job queue (queued + running) is at
	// capacity.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining reports that the server is shutting down and admits no
	// new work.
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// ErrUnknownJob reports a job id the journal has never seen.
var ErrUnknownJob = errors.New("server: unknown job")

// Typed query refusals; any other Query error means the job's published
// graph file could not be read or failed its checks.
var (
	// ErrBadKmer reports a query k-mer of the wrong length or alphabet.
	ErrBadKmer = errors.New("server: malformed query k-mer")
	// ErrJobNotDone reports a query against a job with no finished graph.
	ErrJobNotDone = errors.New("server: job is not done")
)

// errJobCanceled is the cancellation cause for a client DELETE.
var errJobCanceled = errors.New("server: job canceled by client")

// Options configures a Manager.
type Options struct {
	// Root is the server data directory: the job journal plus one
	// directory per job (input, checkpoint, graph, metrics).
	Root string

	// Base is the build configuration jobs inherit; per-job spec fields
	// override K/P/Partitions/FilterMin. Zero value selects
	// parahash.DefaultConfig.
	Base parahash.Config

	// MemoryBudgetBytes bounds the summed Property-1 predicted footprint
	// of concurrently running jobs through a cross-job admission gate.
	// 0 disables cross-job admission (jobs still honour Base's own
	// per-partition budget, if any).
	MemoryBudgetBytes int64

	// MaxQueue caps queued-plus-running jobs; submissions beyond it are
	// shed with ErrQueueFull. 0 selects 16.
	MaxQueue int

	// JobDeadline bounds each job's wall-clock runtime (per attempt);
	// it also seeds the per-partition watchdog when Base leaves
	// PartitionDeadline unset. 0 means no deadline.
	JobDeadline time.Duration

	// RetryMax is how many times a job is retried after a transient
	// build failure (a flaky store, a quarantine-exhausted run) before
	// being journalled failed. Retries resume from the job's checkpoint.
	// 0 selects 2.
	RetryMax int
	// RetryBackoff is the base sleep before the first retry, doubling per
	// retry. 0 selects 50ms.
	RetryBackoff time.Duration
	// RetryJitter spreads each retry sleep by a uniform factor in
	// [1-j, 1+j], decorrelating jobs retrying a shared-store fault.
	// The stream is seeded from RetrySeed for reproducibility.
	RetryJitter float64
	RetrySeed   int64

	// GraphCacheSize bounds the completed-graph query cache (LRU): a
	// long-lived server answering queries over many finished jobs keeps at
	// most this many published graph files open — one descriptor and the
	// file's page keys (0.4 % of its size) each, never a decoded graph. An
	// evicted file is reopened and order-checked again on its next query.
	// 0 selects 8.
	GraphCacheSize int

	// JournalRetain bounds how many terminal job records the journal keeps
	// across a restart: startup compacts older done/failed/canceled records
	// away (atomic rewrite, id sequence preserved) so the journal does not
	// grow without bound over the server's lifetime. Non-terminal records
	// are never compacted. 0 selects 64.
	JournalRetain int

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)

	// WrapJobCtx, when set, post-processes each build attempt's context;
	// the chaos engine uses it to arm plan-scoped stall/cancel points.
	// cancel is the attempt's CancelCauseFunc. Production configs leave
	// it nil.
	WrapJobCtx func(jobID string, ctx context.Context, cancel context.CancelCauseFunc) context.Context

	// WrapJobConfig, when set, post-processes each build attempt's
	// resolved configuration; the chaos engine uses it to install
	// StoreWrap/ProcWrap fault layers. Production configs leave it nil.
	WrapJobConfig func(jobID string, cfg parahash.Config) parahash.Config

	// now stubs time for tests; nil selects time.Now.
	now func() time.Time
}

// RecoveryReport summarises what startup recovery found and repaired.
type RecoveryReport struct {
	// Requeued lists jobs journalled queued or running at startup — work
	// a previous process left unfinished — now re-queued (running ones
	// with Resume set so they continue from their checkpoint).
	Requeued []string
	// Scrubbed maps job id to its checkpoint scrub outcome.
	Scrubbed map[string]core.ScrubReport
	// Swept counts the leftovers Scrub removed across all job checkpoints
	// (core.ScrubReport.Swept), plus the journal's own orphaned tmp file.
	Swept int
	// CompactedJobs counts terminal journal records dropped by startup
	// compaction.
	CompactedJobs int
}

// Manager owns the job lifecycle: admission, execution, recovery, drain.
type Manager struct {
	opts    Options
	journal *Journal
	gate    *pipeline.Gate

	mu         sync.Mutex
	seq        int
	active     map[string]*jobRuntime
	graphs     map[string]*graphHandle // open, checked graph files for queries (LRU)
	graphLRU   []string                // cache ids, least recently used first
	graphEvict int64                   // graphs evicted from the cache
	shed       int64                   // submissions rejected 429
	jitter     *rand.Rand              // retry-backoff jitter stream
	ready      bool
	drained    bool

	killed bool // SIGKILL-equivalent: suppress all journal writes

	recovery RecoveryReport
	wg       sync.WaitGroup
}

// jobRuntime is the in-memory state of a queued or running job.
type jobRuntime struct {
	cancel context.CancelCauseFunc
	done   chan struct{}
}

// Open creates (or reopens) a Manager over root, runs startup recovery —
// sweep the journal's orphaned tmp file, scrub every unfinished job's
// checkpoint, and re-queue jobs a dead process left behind — and only then
// reports ready.
func Open(opts Options) (*Manager, error) {
	if opts.Root == "" {
		return nil, errors.New("server: Options.Root is required")
	}
	if opts.Base.K == 0 {
		opts.Base = parahash.DefaultConfig()
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 16
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = 2
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.GraphCacheSize == 0 {
		opts.GraphCacheSize = 8
	}
	if opts.JournalRetain == 0 {
		opts.JournalRetain = 64
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if err := os.MkdirAll(filepath.Join(opts.Root, "jobs"), 0o777); err != nil {
		return nil, fmt.Errorf("server: creating data directory: %w", err)
	}

	m := &Manager{
		opts:   opts,
		active: make(map[string]*jobRuntime),
		graphs: make(map[string]*graphHandle),
	}
	if opts.RetryJitter > 0 {
		m.jitter = rand.New(rand.NewSource(opts.RetrySeed))
	}
	if opts.MemoryBudgetBytes > 0 {
		g, err := pipeline.NewGate(opts.MemoryBudgetBytes)
		if err != nil {
			return nil, err
		}
		m.gate = g
	}

	// The journal's own publication can have been interrupted mid-rename;
	// sweep its tmp sibling before loading.
	journalPath := filepath.Join(opts.Root, "jobs.json")
	if _, err := os.Stat(journalPath + ".tmp"); err == nil {
		os.Remove(journalPath + ".tmp")
		m.recovery.Swept++
	}
	j, err := OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	m.journal = j
	m.seq = j.MaxSeq()

	// Bound the journal before replaying it: old terminal records are
	// compacted away (their ids stay retired through the max_seq high-water)
	// while everything recovery acts on — queued and running jobs — is kept
	// verbatim, so recovery after compaction is identical to without.
	dropped, err := j.Compact(opts.JournalRetain)
	if err != nil {
		return nil, err
	}
	m.recovery.CompactedJobs = dropped
	if dropped > 0 {
		opts.Logf("server: compacted %d terminal journal record(s)", dropped)
	}

	if err := m.recover(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.ready = true
	m.mu.Unlock()
	return m, nil
}

// recover is the startup pass that makes journalled state live again.
func (m *Manager) recover() error {
	m.recovery.Scrubbed = make(map[string]core.ScrubReport)
	for _, r := range m.journal.List() {
		if r.State.Terminal() {
			continue
		}
		// Scrub the checkpoint before resuming through it: leftovers of the
		// dead process (orphaned .tmp files among them) are swept, and claims whose bytes did not survive are quarantined so the
		// resume selectively rebuilds them.
		ckDir := m.checkpointDir(r.ID)
		if _, err := os.Stat(ckDir); err == nil {
			rep, err := core.Scrub(ckDir)
			if err != nil {
				return fmt.Errorf("server: scrubbing job %s checkpoint: %w", r.ID, err)
			}
			m.recovery.Scrubbed[r.ID] = rep
			m.recovery.Swept += len(rep.Swept)
		}
		id := r.ID
		resume := r.State == StateRunning
		if err := m.journal.Update(id, func(jr *JobRecord) {
			jr.State = StateQueued
			if resume {
				jr.Resumed = true
			}
		}); err != nil {
			return err
		}
		m.recovery.Requeued = append(m.recovery.Requeued, id)
		m.opts.Logf("server: recovered job %s (resume=%v)", id, resume)
		m.startJob(id, resume)
	}
	return nil
}

// Recovery returns the startup recovery report.
func (m *Manager) Recovery() RecoveryReport { return m.recovery }

// Ready reports whether startup recovery has completed and the manager is
// serving; false again once draining.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ready && !m.drained
}

// Draining reports whether a drain is in progress or complete.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drained
}

// Stats is the manager-level governance snapshot.
type Stats struct {
	// Gate is the cross-job admission gate's counters (zero value when no
	// memory budget is configured).
	Gate pipeline.GateStats `json:"gate"`
	// Shed counts submissions rejected with 429.
	Shed int64 `json:"shed"`
	// Queued and Running count non-terminal jobs.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// GraphsCached and GraphEvictions describe the completed-graph query
	// cache: how many published graph files are held open and checked, and
	// how many have been closed by its LRU bound since startup.
	GraphsCached   int   `json:"graphs_cached"`
	GraphEvictions int64 `json:"graph_evictions"`
}

// Stats snapshots the governance counters.
func (m *Manager) Stats() Stats {
	var s Stats
	s.Gate = m.gate.Stats()
	m.mu.Lock()
	s.Shed = m.shed
	s.GraphsCached = len(m.graphs)
	s.GraphEvictions = m.graphEvict
	m.mu.Unlock()
	for _, r := range m.journal.List() {
		switch r.State {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		}
	}
	return s
}

// RetryAfterSeconds derives the Retry-After hint for 429 responses from
// the admission gate's wait-time EWMA: a client told to come back should
// wait about as long as recently admitted jobs actually waited, clamped to
// [1s, 60s] so the hint is never zero and never absurd. Without a gate
// there is no wait signal and the floor is the answer.
func (m *Manager) RetryAfterSeconds() int {
	return retryAfterFromEWMA(m.gate.Stats().WaitEWMASeconds)
}

func retryAfterFromEWMA(ewma float64) int {
	secs := int(math.Ceil(ewma))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// jobDir returns the directory holding one job's artifacts.
func (m *Manager) jobDir(id string) string { return filepath.Join(m.opts.Root, "jobs", id) }

func (m *Manager) inputPath(id string) string     { return filepath.Join(m.jobDir(id), "input.fastq") }
func (m *Manager) checkpointDir(id string) string { return filepath.Join(m.jobDir(id), "checkpoint") }
func (m *Manager) graphPath(id string) string     { return filepath.Join(m.jobDir(id), "graph.dbg") }
func (m *Manager) metricsPath(id string) string   { return filepath.Join(m.jobDir(id), "metrics.json") }

// GraphPath returns the completed graph file for id (for download).
func (m *Manager) GraphPath(id string) string { return m.graphPath(id) }

// MetricsPath returns the metrics file for id.
func (m *Manager) MetricsPath(id string) string { return m.metricsPath(id) }

// Submit admits a new build job over the FASTQ/FASTA stream in input. It
// sheds (ErrDraining/ErrQueueFull) before persisting anything; an admitted
// job is durably journalled queued before Submit returns its id.
func (m *Manager) Submit(spec JobSpec, input io.Reader) (JobRecord, error) {
	m.mu.Lock()
	if m.drained || !m.ready {
		m.shed++
		m.mu.Unlock()
		return JobRecord{}, ErrDraining
	}
	pending := 0
	for _, r := range m.journal.List() {
		if !r.State.Terminal() {
			pending++
		}
	}
	if pending >= m.opts.MaxQueue {
		m.shed++
		m.mu.Unlock()
		return JobRecord{}, fmt.Errorf("%w: %d jobs pending (max %d)", ErrQueueFull, pending, m.opts.MaxQueue)
	}
	m.seq++
	id := fmt.Sprintf("j%04d", m.seq)
	m.mu.Unlock()

	cfg := m.jobConfig(id, spec)
	if err := cfg.Validate(); err != nil {
		return JobRecord{}, fmt.Errorf("server: invalid job spec: %w", err)
	}
	if err := os.MkdirAll(m.jobDir(id), 0o777); err != nil {
		return JobRecord{}, fmt.Errorf("server: creating job directory: %w", err)
	}
	// The upload goes to disk as it arrives — as sent, gzip included — while
	// one parser pass over the same bytes validates it and counts its
	// k-mers: no read outlives its record. A malformed or read-less upload
	// is refused here, before anything is journalled, and leaves no file.
	var reads, totalKmers int64
	err := atomicfile.WriteDurable(m.inputPath(id), func(w io.Writer) error {
		tee := io.TeeReader(input, w)
		fr, err := fastq.NewAutoReader(tee)
		for err == nil {
			var rd fastq.Read
			if rd, err = fr.Next(); err == nil {
				reads++
				totalKmers += int64(max(len(rd.Bases)-cfg.K+1, 0))
			}
		}
		if err != io.EOF {
			return fmt.Errorf("parsing input: %w", err)
		}
		if reads == 0 {
			return errors.New("input has no reads")
		}
		// Whatever the parser left unread behind its last record is stored too.
		_, err = io.Copy(io.Discard, tee)
		return err
	})
	if err != nil {
		os.Remove(m.jobDir(id))
		return JobRecord{}, fmt.Errorf("server: %w", err)
	}

	// The job's admission weight is the whole-graph Property-1 prediction:
	// the same λ/(4α)·N_kmer table pre-sizing Step 2 applies per partition,
	// charged for the full input, so the cross-job gate bounds exactly the
	// bytes all of a job's concurrently resident tables could claim.
	weight := jobWeight(totalKmers, cfg)

	rec := JobRecord{
		ID:            id,
		State:         StateQueued,
		Spec:          spec,
		TotalKmers:    totalKmers,
		WeightBytes:   weight,
		SubmittedUnix: m.opts.now().Unix(),
	}
	if err := m.journal.Put(rec); err != nil {
		os.RemoveAll(m.jobDir(id)) // nothing journalled: leave no upload behind
		return JobRecord{}, err
	}
	m.opts.Logf("server: job %s queued (%d reads, %d kmers, weight %d bytes)", id, reads, totalKmers, weight)
	m.startJob(id, false)
	return rec, nil
}

// jobWeight computes a job's admission weight from its k-mer count.
func jobWeight(totalKmers int64, cfg parahash.Config) int64 {
	slots, err := hashtable.SizeForKmersChecked(totalKmers, cfg.Lambda, cfg.Alpha)
	if err != nil {
		// Oversized inputs still run (the gate clamps to the whole budget,
		// so the job runs alone); per-partition sizing happens later.
		return 1 << 62
	}
	return hashtable.MemoryBytesFor(slots)
}

// jobConfig resolves a job's effective build configuration.
func (m *Manager) jobConfig(id string, spec JobSpec) parahash.Config {
	cfg := m.opts.Base
	if spec.K > 0 {
		cfg.K = spec.K
	}
	if spec.P > 0 {
		cfg.P = spec.P
	}
	if spec.Partitions > 0 {
		cfg.NumPartitions = spec.Partitions
	}
	if spec.FilterMin > 0 {
		cfg.OutputFilterMin = spec.FilterMin
	}
	cfg.Checkpoint = parahash.CheckpointConfig{
		Dir:        m.checkpointDir(id),
		InputLabel: "job:" + id,
	}
	// The daemon never holds a job's graph: graph.dbg is streamed from the
	// subgraph files the build published (Result.WriteGraph), queries are
	// answered from graph.dbg, the journalled totals come from Stats.
	cfg.KeepSubgraphs = false
	if cfg.Resilience.PartitionDeadline == 0 && m.opts.JobDeadline > 0 {
		cfg.Resilience.PartitionDeadline = m.opts.JobDeadline
	}
	return cfg
}

// startJob launches the job's lifecycle goroutine.
func (m *Manager) startJob(id string, resume bool) {
	ctx, cancel := context.WithCancelCause(context.Background())
	rt := &jobRuntime{cancel: cancel, done: make(chan struct{})}
	m.mu.Lock()
	m.active[id] = rt
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(rt.done)
		defer func() {
			m.mu.Lock()
			delete(m.active, id)
			m.mu.Unlock()
		}()
		m.runJob(ctx, id, resume)
	}()
}

// runJob drives one job from queued to a terminal state (or back to
// journalled-running if the process dies first — that is the point).
func (m *Manager) runJob(ctx context.Context, id string, resume bool) {
	rec, ok := m.journal.Get(id)
	if !ok {
		return
	}
	cfg := m.jobConfig(id, rec.Spec)
	cfg.Checkpoint.Resume = resume || rec.Resumed || rec.Attempts > 0

	// Cross-job admission: the whole job waits at the gate until its
	// predicted footprint fits under the budget. FIFO order means a heavy
	// job is never starved by a stream of light ones.
	if m.gate != nil {
		if err := m.gate.Acquire(ctx, rec.WeightBytes); err != nil {
			m.finishJob(ctx, id, nil, err)
			return
		}
		defer m.gate.Release(rec.WeightBytes)
	}

	// Collect before building. By default Go starts its next collection
	// when the heap reaches twice what the last one found live; without
	// this, that is what the previous job's Step 2 held, and this job's
	// garbage piles up to it before anything is freed. Collected here, the
	// build is paced from the daemon's idle heap.
	runtime.GC()

	var res *parahash.Result
	var err error
	for attempt := 0; ; attempt++ {
		// The first attempt's save also journals the job running: restart
		// recovery then sees it running with Attempts >= 1, in one rewrite.
		if err = m.journalState(id, func(jr *JobRecord) {
			if attempt == 0 {
				jr.State = StateRunning
				jr.StartedUnix = m.opts.now().Unix()
			}
			jr.Attempts++
			if cfg.Checkpoint.Resume {
				jr.Resumed = true
			}
		}); err != nil {
			m.opts.Logf("server: job %s: journalling attempt %d: %v", id, attempt+1, err)
			return // killed mid-journal: leave state as the journal has it
		}
		res, err = m.buildOnce(ctx, id, cfg)
		if err == nil || !m.retryable(ctx, err) || attempt >= m.opts.RetryMax {
			break
		}
		backoff := m.retryBackoff(attempt)
		m.opts.Logf("server: job %s attempt %d failed (%v); retrying from checkpoint in %v", id, attempt+1, err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			err = context.Cause(ctx)
		}
		if ctx.Err() != nil {
			err = context.Cause(ctx)
			break
		}
		// Later attempts resume from whatever the failed one checkpointed.
		cfg.Checkpoint.Resume = true
	}
	m.finishJob(ctx, id, res, err)
}

// buildOnce runs one build attempt under the job's deadline.
func (m *Manager) buildOnce(ctx context.Context, id string, cfg parahash.Config) (*parahash.Result, error) {
	attemptCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if m.opts.JobDeadline > 0 {
		var cancelT context.CancelFunc
		attemptCtx, cancelT = context.WithTimeoutCause(attemptCtx, m.opts.JobDeadline,
			fmt.Errorf("server: job %s exceeded deadline %v", id, m.opts.JobDeadline))
		defer cancelT()
	}
	if m.opts.WrapJobCtx != nil {
		attemptCtx = m.opts.WrapJobCtx(id, attemptCtx, cancel)
	}
	if m.opts.WrapJobConfig != nil {
		cfg = m.opts.WrapJobConfig(id, cfg)
	}

	f, err := os.Open(m.inputPath(id))
	if err != nil {
		return nil, fmt.Errorf("server: opening job input: %w", err)
	}
	defer f.Close()
	// Streamed, so the daemon never holds a job's whole read set.
	return parahash.BuildFromReaderContext(attemptCtx, f, cfg)
}

// retryable classifies a build failure. Deterministic failures — disk
// full, a checkpoint from a different configuration, cancellation of any
// flavour (client, drain, kill, deadline), resize exhaustion, device
// memory, a stored input that no longer parses or holds no usable read —
// fail the job; everything else is presumed transient (a flaky store, an
// exhausted quarantine roster) and retried from the checkpoint.
func (m *Manager) retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	switch {
	case errors.Is(err, parahash.ErrCanceled),
		errors.Is(err, parahash.ErrManifestMismatch),
		errors.Is(err, store.ErrDiskFull),
		errors.Is(err, core.ErrResizeExhausted),
		errors.Is(err, core.ErrNoUsableReads),
		errors.Is(err, fastq.ErrBadRecord),
		errors.Is(err, fastq.ErrRecordTooLarge),
		errors.Is(err, hashtable.ErrPartitionTooLarge),
		errors.Is(err, device.ErrDeviceMemory):
		return false
	}
	return true
}

// retryBackoff computes the jittered exponential sleep before a retry.
func (m *Manager) retryBackoff(attempt int) time.Duration {
	d := m.opts.RetryBackoff << uint(attempt)
	if m.opts.RetryJitter > 0 {
		m.mu.Lock()
		factor := 1 + m.opts.RetryJitter*(2*m.jitter.Float64()-1)
		m.mu.Unlock()
		d = time.Duration(float64(d) * factor)
	}
	return d
}

// finishJob journals the job's terminal state and publishes its outputs.
// A killed manager journals nothing: the job stays journalled running,
// exactly as a SIGKILL would leave it, and restart recovery resumes it.
func (m *Manager) finishJob(ctx context.Context, id string, res *parahash.Result, err error) {
	if err == nil {
		if perr := m.publishOutputs(id, res); perr != nil {
			err = perr
		}
	}
	now := m.opts.now().Unix()
	switch {
	case err == nil:
		vertices, edges := res.Stats.GraphVertices, res.Stats.GraphEdges
		if jerr := m.journalState(id, func(jr *JobRecord) {
			jr.State = StateDone
			jr.FinishedUnix = now
			jr.Vertices = vertices
			jr.Edges = edges
		}); jerr == nil {
			m.opts.Logf("server: job %s done (%d vertices, %d edges)", id, vertices, edges)
		}
	case m.isKilled():
		// SIGKILL model: no terminal journalling, no cleanup. The journal
		// still says running; restart recovery owns the rest.
		return
	case m.isDrainCause(ctx):
		// Graceful drain: the job goes back to queued with its checkpoint
		// intact, so the restarted server resumes instead of restarting.
		if jerr := m.journalState(id, func(jr *JobRecord) {
			jr.State = StateQueued
			jr.Resumed = true
		}); jerr == nil {
			m.opts.Logf("server: job %s checkpointed for drain", id)
		}
	case errors.Is(err, errJobCanceled), errors.Is(context.Cause(ctx), errJobCanceled):
		m.journalState(id, func(jr *JobRecord) {
			jr.State = StateCanceled
			jr.FinishedUnix = now
			jr.Error = err.Error()
		})
	default:
		if jerr := m.journalState(id, func(jr *JobRecord) {
			jr.State = StateFailed
			jr.FinishedUnix = now
			jr.Error = err.Error()
		}); jerr == nil {
			m.opts.Logf("server: job %s failed: %v", id, err)
		}
	}
}

// publishOutputs atomically writes the completed graph and metrics files. A
// subgraph file that fails the merge's checks fails the job: graph.dbg is
// published whole and checked, or not at all.
func (m *Manager) publishOutputs(id string, res *parahash.Result) error {
	rec, _ := m.journal.Get(id)
	cfg := m.jobConfig(id, rec.Spec)
	if err := atomicfile.WriteDurable(m.graphPath(id), func(w io.Writer) error {
		_, _, err := res.WriteGraph(w)
		return err
	}); err != nil {
		return fmt.Errorf("server: publishing graph: %w", err)
	}
	if err := atomicfile.WriteDurable(m.metricsPath(id), parahash.MetricsOf(res, cfg).WriteJSON); err != nil {
		return fmt.Errorf("server: publishing metrics: %w", err)
	}
	return nil
}

// journalState applies a state mutation unless the manager is killed.
func (m *Manager) journalState(id string, fn func(*JobRecord)) error {
	if m.isKilled() {
		return errors.New("server: killed")
	}
	return m.journal.Update(id, fn)
}

func (m *Manager) isKilled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

// isDrainCause reports whether the job's context died because of a drain.
func (m *Manager) isDrainCause(ctx context.Context) bool {
	return errors.Is(context.Cause(ctx), ErrDraining)
}

// Get returns a job's journalled record.
func (m *Manager) Get(id string) (JobRecord, error) {
	r, ok := m.journal.Get(id)
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return r, nil
}

// List returns every job in submission order.
func (m *Manager) List() []JobRecord { return m.journal.List() }

// Cancel cancels a queued or running job.
func (m *Manager) Cancel(id string) error {
	if _, ok := m.journal.Get(id); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	m.mu.Lock()
	rt := m.active[id]
	m.mu.Unlock()
	if rt != nil {
		rt.cancel(errJobCanceled)
		<-rt.done
	}
	return nil
}

// QueryResult answers one k-mer lookup against a completed graph.
type QueryResult struct {
	Kmer      string `json:"kmer"`
	Canonical string `json:"canonical"`
	Present   bool   `json:"present"`
	// Multiplicity is the vertex's total edge multiplicity (its k-mer
	// abundance proxy); Degree its distinct-neighbour count.
	Multiplicity int `json:"multiplicity"`
	Degree       int `json:"degree"`
}

// Query looks a k-mer up in a completed job's graph. Graph vertices are
// canonical k-mers, so a k-mer and its reverse complement get the same
// answer — membership in the bi-directed graph. The k-mer is validated
// before the graph file is touched.
func (m *Manager) Query(id, kmer string) (QueryResult, error) {
	rec, ok := m.journal.Get(id)
	if !ok {
		return QueryResult{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if rec.State != StateDone {
		return QueryResult{}, fmt.Errorf("%w: job %s is %s", ErrJobNotDone, id, rec.State)
	}
	k := m.jobConfig(id, rec.Spec).K
	if len(kmer) != k {
		return QueryResult{}, fmt.Errorf("%w: length %d, want K=%d", ErrBadKmer, len(kmer), k)
	}
	kmer = strings.ToUpper(kmer)
	for _, c := range kmer {
		if !strings.ContainsRune("ACGT", c) {
			return QueryResult{}, fmt.Errorf("%w: non-ACGT base %q", ErrBadKmer, c)
		}
	}
	h, err := m.acquireGraph(id)
	if err != nil {
		return QueryResult{}, err
	}
	defer m.releaseGraph(h)
	canon, _ := dna.KmerFromString(kmer).Canonical(k)
	res := QueryResult{Kmer: kmer, Canonical: canon.String(k)}
	v, ok, err := h.graph.Lookup(canon)
	if err != nil {
		return QueryResult{}, fmt.Errorf("server: job %s graph: %w", id, err)
	}
	if ok {
		res.Present = true
		res.Multiplicity = v.Multiplicity()
		res.Degree = v.Degree()
	}
	return res, nil
}

// graphHandle is one job's published graph file, open and order-checked.
type graphHandle struct {
	file  *os.File
	graph *graph.File
	// refs counts the query cache (one, while it holds the handle) plus the
	// lookups in flight; whoever drops it to zero closes the file, so
	// eviction never closes a file under a lookup. Guarded by Manager.mu
	// once the handle is shared.
	refs int
}

// openGraph opens id's published graph file, for a caller that holds the
// one reference to the handle, and runs the checks every answer rests on: header, exact size, and — over the whole file, once —
// strictly ascending k-mer order. Lookup binary-searches, and a published
// graph is sorted: a file that is not has been damaged, and no answer is
// served from it.
func (m *Manager) openGraph(id string) (*graphHandle, error) {
	f, err := os.Open(m.graphPath(id))
	if err != nil {
		return nil, fmt.Errorf("server: opening job graph: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: opening job graph: %w", err)
	}
	g, err := graph.OpenFile(f, st.Size())
	if err == nil {
		err = g.CheckSorted()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: job %s graph: %w", id, err)
	}
	return &graphHandle{file: f, graph: g, refs: 1}, nil
}

// acquireGraph returns id's graph handle with a reference held for the
// caller, opening and caching the published file on first use (a restarted
// server serves queries for jobs it never built in this process). Past the
// bound the least recently used handle is evicted and reopens on its next
// query — the cache bounds open files, never availability.
func (m *Manager) acquireGraph(id string) (*graphHandle, error) {
	m.mu.Lock()
	h := m.cachedGraphLocked(id)
	m.mu.Unlock()
	if h != nil {
		return h, nil
	}
	h, err := m.openGraph(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cached := m.cachedGraphLocked(id); cached != nil {
		// A concurrent query opened it first: use that one.
		h.file.Close()
		return cached, nil
	}
	if m.drained || m.killed {
		// Shut down: nothing would close a cached handle any more.
		return h, nil
	}
	h.refs++
	m.graphs[id] = h
	m.graphLRU = append(m.graphLRU, id)
	for len(m.graphLRU) > m.opts.GraphCacheSize {
		m.evictGraphLocked(m.graphLRU[0])
		m.graphEvict++
	}
	return h, nil
}

// cachedGraphLocked returns id's cached handle, marked most recently used
// and with a reference added for the caller, or nil.
func (m *Manager) cachedGraphLocked(id string) *graphHandle {
	h := m.graphs[id]
	if h == nil {
		return nil
	}
	h.refs++
	for i, v := range m.graphLRU {
		if v == id {
			m.graphLRU = append(append(m.graphLRU[:i:i], m.graphLRU[i+1:]...), id)
			break
		}
	}
	return h
}

// releaseGraph drops one reference, closing the file with the last.
func (m *Manager) releaseGraph(h *graphHandle) {
	m.mu.Lock()
	h.refs--
	last := h.refs == 0
	m.mu.Unlock()
	if last {
		h.file.Close()
	}
}

// evictGraphLocked removes id's handle from the cache and drops the
// cache's reference to it.
func (m *Manager) evictGraphLocked(id string) {
	h := m.graphs[id]
	delete(m.graphs, id)
	for i, v := range m.graphLRU {
		if v == id {
			m.graphLRU = append(m.graphLRU[:i], m.graphLRU[i+1:]...)
			break
		}
	}
	if h.refs--; h.refs == 0 {
		h.file.Close()
	}
}

// closeGraphsLocked empties the query cache at shutdown.
func (m *Manager) closeGraphsLocked() {
	for id := range m.graphs {
		m.evictGraphLocked(id)
	}
}

// Drain gracefully shuts the manager down: stop admitting, close the query
// cache's graph files (a later query opens, checks and closes its own),
// cancel running jobs with the drain cause (each checkpoints and is
// journalled back to queued for the next process to resume), and wait for
// every lifecycle goroutine to finish. It returns nil when the drain completed within ctx.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.drained {
		m.mu.Unlock()
		return nil
	}
	m.drained = true
	m.closeGraphsLocked()
	actives := make([]*jobRuntime, 0, len(m.active))
	for _, rt := range m.active {
		actives = append(actives, rt)
	}
	m.mu.Unlock()
	for _, rt := range actives {
		rt.cancel(ErrDraining)
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		m.opts.Logf("server: drain complete")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", context.Cause(ctx))
	}
}

// Kill abruptly stops the manager as a SIGKILL would: workers are canceled
// but no terminal state is journalled, so the journal keeps saying what it
// said when the axe fell. The chaos server scenario uses this to model
// process death deterministically in-process.
func (m *Manager) Kill() {
	m.mu.Lock()
	// The flag must be visible before any worker wakes from cancellation,
	// so no goroutine sneaks in a terminal journal write post-mortem.
	m.killed = true
	m.closeGraphsLocked()
	actives := make([]*jobRuntime, 0, len(m.active))
	for _, rt := range m.active {
		actives = append(actives, rt)
	}
	m.mu.Unlock()
	for _, rt := range actives {
		rt.cancel(errors.New("server: killed"))
	}
	m.wg.Wait()
}
