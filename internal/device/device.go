// Package device provides the heterogeneous processors ParaHash schedules
// work onto: a multi-threaded CPU and one or more GPUs.
//
// The GPU is simulated (see DESIGN.md): it executes the same kernels as the
// CPU — identical hash table layout, identical state machine — but in a
// SIMT-structured sweep (warps of 32 work items whose cost is the slowest
// lane's, reproducing divergence). Results are therefore bit-identical
// across processors. Kernels charge no time: they return counts — bases,
// k-mers, table bytes, host<->device transfer bytes — and core's step1Cost
// and step2Cost turn those into the virtual seconds of the paper's Eq. 1–2
// model, a GPU's transfer included, which the paper does not overlap with
// device compute.
package device

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
)

// Kind discriminates processor classes.
type Kind int

// Processor kinds.
const (
	KindCPU Kind = iota + 1
	KindGPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	default:
		return "unknown"
	}
}

// WarpSize is the SIMT width of the simulated GPU (Nvidia Kepler: 32).
const WarpSize = 32

// Step1Output is the result of scanning one read partition into superkmers.
type Step1Output struct {
	// Superkmers holds every superkmer of the partition, in read order.
	Superkmers []msp.Superkmer
	// Bases is the number of input bases scanned.
	Bases int64
	// TransferBytes is the host<->device traffic (zero on CPU).
	TransferBytes int64
}

// Step2Output is the result of hashing one superkmer partition.
type Step2Output struct {
	// Graph is the constructed subgraph, sorted.
	Graph *graph.Subgraph
	// Kmers is the number of k-mer instances hashed.
	Kmers int64
	// TransferBytes is the host<->device traffic (zero on CPU).
	TransferBytes int64
	// TableBytes is the hash table footprint used.
	TableBytes int64
	// Distinct is the number of distinct vertices found.
	Distinct int64
	// Hash is the hash table's work counters — the state-transfer split
	// (Inserts locked, Updates lock-free), probe walks and contention; zero
	// on the out-of-core path.
	Hash hashtable.Snapshot
	// WarpDivergence is, on GPUs, the mean ratio of slowest-lane probes to
	// mean-lane probes per warp (1.0 = no divergence); zero on CPUs.
	WarpDivergence float64
	// Spill is the out-of-core path's work when the partition was
	// constructed by sort-merge instead of a hash table; zero in-core.
	Spill SpillCounts
	// SpillFiles names every run file the out-of-core construction read or
	// wrote — the scanned runs, then the merge intermediates. They are the
	// caller's to remove once nothing can claim them.
	SpillFiles []string
}

// Processor abstracts a compute device for the work-stealing pipeline.
// Kernels are cooperative: they check ctx periodically (every ctxCheckEvery
// work items) and return ctx's error promptly when canceled, so the
// pipeline's watchdog can abandon a hung attempt without leaking the
// goroutine running it.
type Processor interface {
	// Name is unique within a run ("CPU", "GPU0", ...).
	Name() string
	// Kind reports the device class.
	Kind() Kind
	// Step1 scans a read partition into superkmers.
	Step1(ctx context.Context, reads []fastq.Read, k, p int) (Step1Output, error)
	// Step2 builds the subgraph of one superkmer partition, sizing the
	// hash table to tableSlots.
	Step2(ctx context.Context, sks []msp.Superkmer, k, tableSlots int) (Step2Output, error)
}

// ctxCheckEvery is the kernel cancellation-poll stride in work items (reads
// for Step 1, superkmers for Step 2): frequent enough that cancellation
// latency stays far below any realistic watchdog deadline, rare enough that
// the atomic load in ctx.Err() never shows up in a profile.
const ctxCheckEvery = 256

// CPU is the multi-threaded host processor. Its kernels use real goroutine
// concurrency over the shared state-transfer hash table.
//
// A CPU carries per-worker Step 1 scratch reused across kernel invocations,
// so a CPU value runs one Step 1 kernel at a time (step1 serialises them):
// the pipeline drives a processor from one worker goroutine, but an attempt
// its watchdog abandoned may still be winding down when the retry arrives.
// Step 2 is re-entrant: concurrent calls share only the recycled tables,
// handed over under a lock, and the pool of Threads tokens their goroutines
// hash, extract and sort under, so the pipeline may keep two partitions in
// flight on one CPU — and an attempt the watchdog abandoned may still be
// winding down while the processor's next attempts run.
type CPU struct {
	// Threads is the worker count (the paper machine runs 20).
	Threads int
	// Partitions, when positive, is propagated to the Step 1 scanners so
	// every superkmer leaves the scan already stamped with its partition
	// index (msp.Scanner.NumPartitions), moving the routing hash off the
	// sequential output stage.
	Partitions int

	// Per-worker Step 1 scratch, held by one kernel at a time (step1):
	// scanners keep their minimizer/p-mer/deque buffers warm, skBufs keep the
	// per-worker superkmer slices, so a warmed CPU scans with zero allocations
	// per read.
	step1    sync.Mutex
	scanners []msp.Scanner
	skBufs   [][]msp.Superkmer
	// tables recycles the Step 2 hash tables of earlier partitions.
	tables tableCache
	// tokens bounds the Step 2 work running at once to Threads goroutines,
	// however many partitions are in flight.
	tokens threadTokens
}

var _ Processor = (*CPU)(nil)

// cpuTablesKept is how many Step 2 tables a CPU keeps for the partitions
// after: one per partition the pipeline keeps in flight on it (two, see
// core.step2Slots). Driven one partition at a time it never holds more than
// one, as tableCache.take lets one go whenever it hands one out.
const cpuTablesKept = 2

// threadTokens is a CPU's pool of Threads tokens. A Step 2 goroutine holds
// one for every chunk it hashes and for the extract and sort of its
// partition, so Threads still bounds the hashing work of the CPU when two
// partitions are in flight: the second partition's goroutines take the
// tokens the first one's tail leaves idle.
type threadTokens struct {
	once sync.Once
	free chan struct{}
}

// pool returns the token channel, sized to n the first time it is asked for.
func (tt *threadTokens) pool(n int) chan struct{} {
	tt.once.Do(func() { tt.free = make(chan struct{}, n) })
	return tt.free
}

// acquire takes one of n tokens, waiting for one to be returned if need be.
func (tt *threadTokens) acquire(ctx context.Context, n int) error {
	select {
	case tt.pool(n) <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquire takes up to limit more of n tokens without waiting and returns
// how many it took.
func (tt *threadTokens) tryAcquire(n, limit int) int {
	for got := 0; got < limit; got++ {
		select {
		case tt.pool(n) <- struct{}{}:
		default:
			return got
		}
	}
	return limit
}

// release returns held tokens.
func (tt *threadTokens) release(held int) {
	for ; held > 0; held-- {
		<-tt.free
	}
}

// Name implements Processor.
func (c *CPU) Name() string { return "CPU" }

// Kind implements Processor.
func (c *CPU) Kind() Kind { return KindCPU }

// superkmersHint estimates how many superkmers reads holding the given bases
// will yield, to size a scan buffer once instead of growing it: a random
// minimizer changes about twice per k-p+2 k-mers, and every read ends one.
func superkmersHint(bases int64, reads, k, p int) int {
	return int(2*bases/int64(k-p+2)) + reads
}

// Step1 scans reads into superkmers with Threads parallel workers, each
// holding its own persistent scanner, then concatenates in read order. The
// per-worker scanners and superkmer buffers are reused across calls, so the
// only allocation a warmed CPU makes per chunk is the concatenated output
// slice — which the pipeline retains past the call and cannot be reused.
func (c *CPU) Step1(ctx context.Context, reads []fastq.Read, k, p int) (Step1Output, error) {
	if c.Threads < 1 {
		return Step1Output{}, fmt.Errorf("device: CPU threads %d must be positive", c.Threads)
	}
	c.step1.Lock()
	defer c.step1.Unlock()
	chunks := fastq.PartitionReads(reads, c.Threads)
	for len(c.scanners) < len(chunks) {
		c.scanners = append(c.scanners, msp.Scanner{})
	}
	for len(c.skBufs) < len(chunks) {
		c.skBufs = append(c.skBufs, nil)
	}
	chunkBases := make([]int64, len(chunks))
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		wg.Add(1)
		go func(i int, chunk []fastq.Read) {
			defer wg.Done()
			sc := &c.scanners[i]
			sc.K, sc.P, sc.NumPartitions = k, p, c.Partitions
			for _, rd := range chunk {
				chunkBases[i] += int64(len(rd.Bases))
			}
			out := c.skBufs[i][:0]
			if hint := superkmersHint(chunkBases[i], len(chunk), k, p); cap(out) < hint {
				out = make([]msp.Superkmer, 0, hint)
			}
			for j, rd := range chunk {
				if j%ctxCheckEvery == 0 && ctx.Err() != nil {
					return
				}
				out = sc.Superkmers(out, rd.Bases)
			}
			c.skBufs[i] = out
		}(i, chunk)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Step1Output{}, err
	}

	var bases int64
	total := 0
	for i, r := range c.skBufs[:len(chunks)] {
		bases += chunkBases[i]
		total += len(r)
	}
	all := make([]msp.Superkmer, 0, total)
	for _, r := range c.skBufs[:len(chunks)] {
		all = append(all, r...)
	}
	return Step1Output{
		Superkmers: all,
		Bases:      bases,
	}, nil
}

// step2ChunkKmers is the Step 2 work-claiming granularity in k-mers: tens
// of microseconds of hashing per claim, so the tail imbalance is bounded by
// one small chunk while the claim cursor stays far too cold to contend. A
// fixed weight — not a share of the partition's total — lets one walk over
// the records both cut the chunks and count the k-mers.
const step2ChunkKmers = 1024

// step2Chunks cuts sks into contiguous chunks of at least step2ChunkKmers
// k-mers each (the last may be lighter) and returns each chunk's exclusive
// end index and the partition's k-mer count. An index-striped split balances
// record counts, not k-mer counts; skewed superkmer lengths then idle every
// thread behind the one holding the long records. The chunks are cut by the
// k-mers walked — a folded superkmer is walked once whatever its Weight —
// while the count is weighted: every k-mer the records hold, which is what
// the cost model and the table sizing are stated in.
func step2Chunks(sks []msp.Superkmer, k int) (ends []int, kmers int64) {
	var acc int64
	for i := range sks {
		n := int64(sks[i].NumKmers(k))
		kmers += n * int64(sks[i].Weight())
		acc += n
		if acc >= step2ChunkKmers {
			ends = append(ends, i+1)
			acc = 0
		}
	}
	if n := len(sks); n > 0 && (len(ends) == 0 || ends[len(ends)-1] != n) {
		ends = append(ends, n)
	}
	return ends, kmers
}

// tableCache lets a processor build each partition in a table it built an
// earlier one in. Allocating a table means zeroing megabytes the collector
// must then trace and free; ResetTo clears only the words a new table needs
// clear, and a table serves every partition whose table would be no larger,
// so partitions on both sides of a power-of-two boundary share it. The
// mutex orders the hand-over between partitions in flight on one processor
// at once, and against an attempt the pipeline's watchdog has abandoned but
// which has not returned.
type tableCache struct {
	mu   sync.Mutex
	held []*hashtable.Table // oldest first
}

// take returns an empty table for (k, slots): a held one, ResetTo slots, when
// hashtable.Reusable says a new one would be no different, else a new one —
// the oldest held table is let go first, so the tables a processor holds
// never outnumber what put keeps plus its kernels running.
func (tc *tableCache) take(k, slots int) (*hashtable.Table, error) {
	tc.mu.Lock()
	var t *hashtable.Table
	for i, h := range tc.held {
		if hashtable.Reusable(h, k, slots) {
			t = tc.removeLocked(i)
			break
		}
	}
	if t == nil && len(tc.held) > 0 {
		tc.removeLocked(0)
	}
	tc.mu.Unlock()
	if t != nil {
		t.ResetTo(slots)
		return t, nil
	}
	return hashtable.New(k, slots)
}

// removeLocked takes held table i out of the cache, leaving no reference to
// it behind.
func (tc *tableCache) removeLocked(i int) *hashtable.Table {
	t := tc.held[i]
	last := len(tc.held) - 1
	copy(tc.held[i:], tc.held[i+1:])
	tc.held[last] = nil
	tc.held = tc.held[:last]
	return t
}

// put hands a table back for the partitions after, keeping at most keep
// tables (the oldest go first). Only a kernel that has joined all its
// workers and whose context is still live may call it: an abandoned attempt
// may still be writing to its table.
func (tc *tableCache) put(t *hashtable.Table, keep int) {
	tc.mu.Lock()
	tc.held = append(tc.held, t)
	for len(tc.held) > keep {
		tc.removeLocked(0)
	}
	tc.mu.Unlock()
}

// Step2 hashes a superkmer partition with Threads workers sharing one
// table, then materialises the sorted subgraph. Work is distributed by
// kmer-weighted chunk claiming: workers pull contiguous chunks of near-equal
// k-mer weight from an atomic cursor, so skewed superkmer lengths cannot
// idle threads the way an index-striped split would. Each worker updates
// its own padded metrics shard via a per-worker table handle. A folded
// superkmer is walked once, each of its k-mers one weighted table operation.
// The table is an earlier partition's when that one fits (see tableCache).
// Every chunk, and the extract and sort, runs under one of the CPU's Threads
// tokens, so concurrent calls share the threads instead of multiplying them.
func (c *CPU) Step2(ctx context.Context, sks []msp.Superkmer, k, tableSlots int) (Step2Output, error) {
	if c.Threads < 1 {
		return Step2Output{}, fmt.Errorf("device: CPU threads %d must be positive", c.Threads)
	}
	table, err := c.tables.take(k, tableSlots)
	if err != nil {
		return Step2Output{}, err
	}
	ends, kmers := step2Chunks(sks, k)

	var cursor atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, c.Threads)
	for w := 0; w < c.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ins := table.Inserter(w)
			hashChunk := func(ci int) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				start := 0
				if ci > 0 {
					start = ends[ci-1]
				}
				var insertErr error
				for i, step := start, 0; i < ends[ci]; i, step = i+1, step+1 {
					if step%ctxCheckEvery == 0 && step > 0 && ctx.Err() != nil {
						return ctx.Err()
					}
					weight := sks[i].Weight()
					msp.ForEachKmerEdge(sks[i], k, func(e msp.KmerEdge) {
						if insertErr != nil {
							return
						}
						_, insertErr = ins.InsertEdgeN(e, weight)
					})
					if insertErr != nil {
						return insertErr
					}
				}
				return nil
			}
			for {
				// The token first, then the chunk: a goroutine waiting for a
				// token holds back no work its partition's running ones
				// could do.
				if err := c.tokens.acquire(ctx, c.Threads); err != nil {
					errs[w] = err
					return
				}
				ci := int(cursor.Add(1)) - 1
				var err error
				if ci < len(ends) {
					err = hashChunk(ci)
				}
				c.tokens.release(1)
				if ci >= len(ends) {
					return
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Step2Output{}, err
	}
	for _, err := range errs {
		if err != nil {
			// A full table still reports the hashing work the aborted
			// attempt performed, so the resize loop can fold it into the
			// successful attempt's counters instead of under-reporting
			// exactly on the hardest partitions.
			return counterOnlyOutput(table), fmt.Errorf("device: CPU hashing: %w", err)
		}
	}
	if err := c.tokens.acquire(ctx, c.Threads); err != nil {
		return Step2Output{}, err
	}
	// A sort too small to fan out runs on the one token; a larger one takes
	// what the other partition in flight leaves free.
	held := 1
	if table.Len() >= graph.SortParallelMin {
		held += c.tokens.tryAcquire(c.Threads, c.Threads-1)
	}
	out := collectStep2(table, k, kmers, held)
	c.tokens.release(held)
	c.tables.put(table, cpuTablesKept)
	return out, nil
}

// counterOnlyOutput reports a failed Step 2 attempt's hash-table work
// counters without a graph, so retried attempts (the bounded resize loop)
// keep their metrics monotonic and honest.
func counterOnlyOutput(table *hashtable.Table) Step2Output {
	return Step2Output{Hash: table.Metrics().Snapshot()}
}

// Step1TransferBytes is the GPU Step 1 host<->device traffic model: the
// 2-bit encoded reads travel down (bases/4 bytes) and one 12-byte
// (id, offset, length) record per superkmer travels back up (§III-D). The
// kernel accounting and the scheduler cost model both use this single
// definition, so the two formulas can never drift apart.
func Step1TransferBytes(bases, superkmers int64) int64 {
	return bases/4 + superkmers*12
}

// ErrDeviceMemory reports that a partition's working set does not fit in
// the GPU's device memory. The paper's K40m carries 12 GB, which is why
// partition counts are chosen so each hash table fits on-device (§III-A)
// and why device compute is not overlapped with transfer (§IV). The fix is
// a larger partition count.
var ErrDeviceMemory = errors.New("device: partition exceeds GPU memory; increase the partition count")

// GPU is the simulated device processor. Like CPU it carries Step 1 scratch
// reused across calls, so one GPU value must not run two Step 1 kernels at
// once.
type GPU struct {
	// Index distinguishes multiple devices ("GPU0", "GPU1").
	Index int
	// MemoryBytes bounds the device working set (hash table + resident
	// partition). Zero means unlimited; the paper's K40m has 12 GB.
	MemoryBytes int64
	// Partitions mirrors CPU.Partitions: scan-time partition stamping.
	Partitions int

	// scan is the persistent Step 1 scanner (warm minimizer buffers); step1
	// serialises the kernels that share it, as on the CPU.
	step1 sync.Mutex
	scan  msp.Scanner
	// tables recycles the previous partition's Step 2 hash table.
	tables tableCache
}

var _ Processor = (*GPU)(nil)

// Name implements Processor.
func (g *GPU) Name() string { return fmt.Sprintf("GPU%d", g.Index) }

// Kind implements Processor.
func (g *GPU) Kind() Kind { return KindGPU }

// Step1 runs the MSP kernel: the device receives 2-bit encoded reads
// (bases/4 bytes), computes superkmer ids and offsets, and returns offset
// records the host turns into superkmers — the paper's split where the GPU
// does the O(LKP) minimizer search and the CPU the irregular memory
// movement (§III-D).
func (g *GPU) Step1(ctx context.Context, reads []fastq.Read, k, p int) (Step1Output, error) {
	g.step1.Lock()
	defer g.step1.Unlock()
	sc := &g.scan
	sc.K, sc.P, sc.NumPartitions = k, p, g.Partitions
	var bases int64
	for _, rd := range reads {
		bases += int64(len(rd.Bases))
	}
	all := make([]msp.Superkmer, 0, superkmersHint(bases, len(reads), k, p))
	for i, rd := range reads {
		if i%ctxCheckEvery == 0 && ctx.Err() != nil {
			return Step1Output{}, ctx.Err()
		}
		all = sc.Superkmers(all, rd.Bases)
	}
	return Step1Output{
		Superkmers:    all,
		Bases:         bases,
		TransferBytes: Step1TransferBytes(bases, int64(len(all))),
	}, nil
}

// encodedBytes is the encoded size of the records sks stand for, folded
// copies included: the partition as its file holds it.
func encodedBytes(sks []msp.Superkmer) int64 {
	var n int64
	for i := range sks {
		n += int64(msp.EncodedSize(len(sks[i].Bases))) * int64(sks[i].Weight())
	}
	return n
}

// Step2 runs the hashing kernel in SIMT order: work items (k-mer edge
// observations, a folded superkmer's weighted once) are processed in warps
// of 32, and each warp's probe cost is its slowest lane's, reproducing the
// thread-divergence penalty of §III-D. The device-memory check and the
// transfer count take the partition as its file holds it, folded copies
// included, so folding changes neither the verdict nor the transfer.
func (g *GPU) Step2(ctx context.Context, sks []msp.Superkmer, k, tableSlots int) (Step2Output, error) {
	partBytes := encodedBytes(sks)
	if g.MemoryBytes > 0 {
		if need := hashtable.MemoryBytesFor(tableSlots) + partBytes; need > g.MemoryBytes {
			return Step2Output{}, fmt.Errorf("%w: need %d bytes, have %d",
				ErrDeviceMemory, need, g.MemoryBytes)
		}
	}
	table, err := g.tables.take(k, tableSlots)
	if err != nil {
		return Step2Output{}, err
	}
	var kmers int64
	var warpMaxSum, warpMeanSum float64
	var warps int

	lane := 0
	var warpProbes [WarpSize]int
	flushWarp := func() {
		if lane == 0 {
			return
		}
		max, sum := 0, 0
		for i := 0; i < lane; i++ {
			if warpProbes[i] > max {
				max = warpProbes[i]
			}
			sum += warpProbes[i]
		}
		warpMaxSum += float64(max)
		warpMeanSum += float64(sum) / float64(lane)
		warps++
		lane = 0
	}

	ins := table.Inserter(0)
	var insertErr error
	for i, sk := range sks {
		if i%ctxCheckEvery == 0 && ctx.Err() != nil {
			return Step2Output{}, ctx.Err()
		}
		weight := sk.Weight()
		kmers += int64(sk.NumKmers(k)) * int64(weight)
		msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) {
			if insertErr != nil {
				return
			}
			probes, err := ins.InsertEdgeN(e, weight)
			if err != nil {
				insertErr = err
				return
			}
			warpProbes[lane] = probes
			lane++
			if lane == WarpSize {
				flushWarp()
			}
		})
		if insertErr != nil {
			// Report the aborted attempt's counters, as the CPU kernel does.
			return counterOnlyOutput(table), fmt.Errorf("device: GPU hashing: %w", insertErr)
		}
	}
	flushWarp()

	out := collectStep2(table, k, kmers, runtime.GOMAXPROCS(0))
	g.tables.put(table, 1)
	// Transfer: the encoded superkmer partition down, the subgraph up.
	out.TransferBytes = partBytes + graph.ModelBytes(out.Graph.NumVertices())
	if warps > 0 && warpMeanSum > 0 {
		out.WarpDivergence = warpMaxSum / warpMeanSum
	}
	return out, nil
}

// collectStep2 materialises the table into a sorted subgraph plus counters.
// The vertex slice comes from graph.GetVertices; a caller that does not keep
// the subgraph gives it back with graph.PutVertices once it is written.
// The sort runs on up to sortWorkers goroutines, clamped to the physical
// parallelism available, and the result is identical to the sequential
// sort (vertex keys are unique).
func collectStep2(table *hashtable.Table, k int, kmers int64, sortWorkers int) Step2Output {
	sub := &graph.Subgraph{K: k, Vertices: graph.GetVertices(table.Len())}
	table.ForEach(func(e hashtable.Entry) {
		sub.Vertices = append(sub.Vertices, graph.Vertex{Kmer: e.Kmer, Counts: e.Counts})
	})
	if mp := runtime.GOMAXPROCS(0); sortWorkers > mp {
		sortWorkers = mp
	}
	sub.SortParallel(sortWorkers)
	return Step2Output{
		Graph:      sub,
		Kmers:      kmers,
		TableBytes: table.MemoryBytes(),
		Distinct:   int64(table.Len()),
		Hash:       table.Metrics().Snapshot(),
	}
}
