// Package hashtable implements ParaHash's concurrent open-addressing hash
// table for De Bruijn subgraph construction (§III-C of the paper).
//
// Every entry is a <vertex, list of edges> pair: a canonical k-mer key plus
// eight edge-multiplicity counters (four bases on each side of the
// canonical orientation). A three-state occupancy flag —
// empty → locked → occupied — serialises only the single multi-word key
// write of an entry's lifetime; all subsequent accesses are lock-free reads
// of the key and atomic increments of the counters. Because distinct
// vertices are roughly 1/5 of all k-mer instances in real data, this
// "one-insertion, multiple-updates" pattern eliminates about 80% of the
// locking a per-access lock would incur, which the paper reports in §III
// and which the Contention method exposes for the reproduction benchmarks.
//
// The table keys on the canonical k-mer exactly as given, and insertions
// only add to counters, so the final counts do not depend on insertion
// order; a subgraph is deterministic because Step 2 sorts what ForEach
// yields, never because of iteration order.
package hashtable

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"parahash/internal/dna"
	"parahash/internal/msp"
)

// Occupancy states of a slot, per the paper's state-transfer mechanism.
const (
	stateEmpty    uint32 = 0
	stateLocked   uint32 = 1
	stateOccupied uint32 = 2
)

// countersPerSlot is the number of edge-multiplicity counters per entry:
// indexes 0-3 count left-side neighbours by base, 4-7 right-side.
const countersPerSlot = 8

// ErrTableFull reports that an insert probed every slot without finding
// room. ParaHash pre-sizes tables with Property 1 so this is not expected;
// callers that cannot guarantee sizing should rebuild via Grow.
var ErrTableFull = errors.New("hashtable: table full")

// metricsShards is the number of per-worker counter shards; a power of two
// comfortably above typical thread counts, so concurrent workers using
// distinct handles land on distinct cache lines.
const metricsShards = 32

// metricsShard is one worker's slice of the table counters, padded out to
// two cache lines so neighbouring shards never share a line (the counters
// themselves span 40 bytes; the pad covers prefetcher-pair effects too).
type metricsShard struct {
	inserts, updates, probes, lockWaits, casFailures atomic.Int64
	_                                                [88]byte
}

// Metrics counts the hashing work a table has performed. The counters are
// sharded per worker — every table handle (see Table.Inserter) bumps its own
// padded shard, so the hot probe loop never bounces a shared cache line
// between threads — and merged into a Snapshot on demand. They feed both the
// contention experiments and the cost model.
type Metrics struct {
	shards [metricsShards]metricsShard
}

// shard returns the padded counter shard for a worker index.
func (m *Metrics) shard(worker int) *metricsShard {
	return &m.shards[uint(worker)%metricsShards]
}

// handleShard routes an Inserter handle to its counter shard. With a single
// scheduler processor there is no parallelism and therefore no counter
// contention to avoid, so every handle shares shard 0: one hot cache line
// beats spreading sequential goroutines over many cold ones (the PR 5
// report measured the spread costing 12% at GOMAXPROCS=1). Totals are
// identical either way — Snapshot merges all shards.
func (m *Metrics) handleShard(worker int) *metricsShard {
	if runtime.GOMAXPROCS(0) == 1 {
		worker = 0
	}
	return m.shard(worker)
}

// Snapshot is a point-in-time copy of a table's work counters, safe to keep
// after the table (or its metrics) is reset.
type Snapshot struct {
	Inserts, Updates, Probes, LockWaits, CASFailures int64
}

// ContentionReduction is Updates/(Inserts+Updates) over the snapshot — the
// §III-C3 lock-avoidance fraction.
func (s Snapshot) ContentionReduction() float64 {
	if s.Inserts+s.Updates == 0 {
		return 0
	}
	return float64(s.Updates) / float64(s.Inserts+s.Updates)
}

// Snapshot merges every shard, reading each counter atomically (each on its
// own; the set is not a single consistent cut, which monotonic counters
// tolerate). Counter semantics are identical to the former shared-atomic
// implementation: totals, not per-shard views.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for i := range m.shards {
		sh := &m.shards[i]
		s.Inserts += sh.inserts.Load()
		s.Updates += sh.updates.Load()
		s.Probes += sh.probes.Load()
		s.LockWaits += sh.lockWaits.Load()
		s.CASFailures += sh.casFailures.Load()
	}
	return s
}

// Reset zeroes every counter. It must not run concurrently with writers.
func (m *Metrics) Reset() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.inserts.Store(0)
		sh.updates.Store(0)
		sh.probes.Store(0)
		sh.lockWaits.Store(0)
		sh.casFailures.Store(0)
	}
}

// add folds a snapshot into the first shard; Grow uses it to carry counters
// into the replacement table.
func (m *Metrics) add(s Snapshot) {
	sh := &m.shards[0]
	sh.inserts.Add(s.Inserts)
	sh.updates.Add(s.Updates)
	sh.probes.Add(s.Probes)
	sh.lockWaits.Add(s.LockWaits)
	sh.casFailures.Add(s.CASFailures)
}

// Table is the concurrent De Bruijn subgraph hash table. Inserts and
// Lookups are safe for concurrent use by any number of goroutines; ForEach,
// Reset and Grow must not run concurrently with writers.
type Table struct {
	k      int
	mask   uint64
	states []uint32
	keysHi []uint64
	keysLo []uint64
	counts []uint32

	// distinct counts first inserts.
	distinct atomic.Int64
	metrics  Metrics
}

// New creates a table with at least the given capacity (rounded up to a
// power of two) for k-mers of length k. Capacity is the number of slots,
// not the expected element count; use SizeForKmers to apply the paper's
// Property 1 sizing rule.
func New(k, capacity int) (*Table, error) {
	if k < 2 || k > dna.MaxK {
		return nil, fmt.Errorf("hashtable: k=%d out of range [2,%d]", k, dna.MaxK)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("hashtable: capacity %d must be positive", capacity)
	}
	n := int(roundedSlots(capacity))
	return &Table{
		k:      k,
		mask:   uint64(n - 1),
		states: make([]uint32, n),
		keysHi: make([]uint64, n),
		keysLo: make([]uint64, n),
		counts: make([]uint32, n*countersPerSlot),
	}, nil
}

// MaxSlots is the largest slot capacity the Property 1 sizing will
// produce: 2^40 slots (a ~57 TB table) — far beyond any single-partition
// working set; needing more means the partition count is wrong.
const MaxSlots = int64(1) << 40

// ErrPartitionTooLarge reports a partition whose Property 1 table would
// exceed MaxSlots (or the host's int range): the fix is a larger partition
// count, not a bigger table.
var ErrPartitionTooLarge = errors.New("hashtable: partition too large for a single table")

// maxPlatformSlots is MaxSlots clamped to the host's int range, so 32-bit
// builds can never overflow int when converting the slot count.
func maxPlatformSlots() int64 {
	limit := MaxSlots
	if limit > int64(math.MaxInt) {
		limit = int64(math.MaxInt)
	}
	return limit
}

// SizeForKmers returns the slot capacity for a partition containing nkmers
// k-mer instances, using the paper's rule: λ/(4α) · N_kmer, where λ is the
// expected per-read error count and α the target load factor
// (paper defaults: λ=2, α ∈ [0.5, 0.8]). Non-finite or non-positive λ/α
// are clamped to the paper defaults, and the result saturates at the
// platform slot cap; callers that must distinguish saturation should use
// SizeForKmersChecked.
func SizeForKmers(nkmers int64, lambda, alpha float64) int {
	n, err := SizeForKmersChecked(nkmers, lambda, alpha)
	if err != nil {
		return int(maxPlatformSlots())
	}
	return n
}

// SizeForKmersChecked is SizeForKmers with a typed error path: a partition
// whose table would exceed MaxSlots (or the host int range) returns
// ErrPartitionTooLarge instead of a silently saturated — or, before this
// existed, overflowed — capacity.
func SizeForKmersChecked(nkmers int64, lambda, alpha float64) (int, error) {
	if nkmers <= 0 {
		return 8, nil
	}
	// Garbage tuning inputs (NaN, ±Inf, non-positive) fall back to the
	// paper defaults instead of poisoning the arithmetic.
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda <= 0 {
		lambda = 2
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 0 {
		alpha = 0.65
	}
	if alpha > 1 {
		alpha = 1
	}
	size := lambda / (4 * alpha) * float64(nkmers)
	if size < 8 {
		return 8, nil
	}
	if limit := maxPlatformSlots(); size >= float64(limit) {
		return 0, fmt.Errorf("%w: %d k-mers want %.3g slots (cap %d)",
			ErrPartitionTooLarge, nkmers, size, limit)
	}
	return int(size), nil
}

// K returns the k-mer length the table was built for.
func (t *Table) K() int { return t.k }

// Capacity returns the number of slots.
func (t *Table) Capacity() int { return len(t.states) }

// Len returns the number of distinct vertices inserted so far.
func (t *Table) Len() int { return int(t.distinct.Load()) }

// Metrics exposes the table's work counters.
func (t *Table) Metrics() *Metrics { return &t.metrics }

// MemoryBytes reports the table's allocated footprint, for the paper's peak
// memory comparisons.
func (t *Table) MemoryBytes() int64 {
	return MemoryBytesFor(len(t.states))
}

// MemoryBytesFor returns the footprint a table with the given slot capacity
// would allocate (after power-of-two rounding), letting planners account
// for memory without building tables.
func MemoryBytesFor(capacity int) int64 {
	n := roundedSlots(capacity)
	return n*4 + n*8*2 + n*countersPerSlot*4
}

// roundedSlots is the constructor's slot rounding: the next power of two,
// at least 8. New and MemoryBytesFor both use it so predicted and allocated
// footprints can never diverge.
func roundedSlots(capacity int) int64 {
	n := int64(1) << bits.Len64(uint64(capacity-1))
	if n < 8 {
		n = 8
	}
	return n
}

// Inserter is a per-worker insertion handle: it performs exactly the same
// table operations as Table.InsertEdge but accounts its work into one padded
// counter shard, so concurrent workers using distinct handles never contend
// on metrics cache lines. Handles are cheap values; a worker typically
// obtains one per partition. Any number of handles may run concurrently
// (including alongside Table.InsertEdge, which is handle 0).
type Inserter struct {
	t  *Table
	sh *metricsShard
}

// Inserter returns the insertion handle for a worker index. Indexes beyond
// the shard count fold together (still correct, marginally more contended).
func (t *Table) Inserter(worker int) Inserter {
	return Inserter{t: t, sh: t.metrics.handleShard(worker)}
}

// InsertEdge records one canonical-oriented k-mer observation: the vertex
// is inserted if absent, and its left/right neighbour counters are
// incremented per the edge's adjacent bases. This is the hash table
// lookup / insertion / update of §III-C2, with the state-transfer partial
// locking of §III-C3.
func (t *Table) InsertEdge(e msp.KmerEdge) error {
	return t.Inserter(0).InsertEdge(e)
}

// InsertEdge records one observation through the handle's counter shard.
func (in Inserter) InsertEdge(e msp.KmerEdge) error {
	_, err := in.InsertEdgeN(e, 1)
	return err
}

// InsertEdgeN records n identical canonical-oriented k-mer observations
// with one table operation: the vertex is inserted if absent and each
// counter the edge names grows by n (modulo 2^32, as n single adds would),
// so the entry ends exactly as after n InsertEdge calls. The call counts one
// insert or one update, whatever n; n = 0 records nothing. It returns the
// probe walk length, which the simulated GPU uses to model intra-warp
// divergence (lanes in a warp diverge to different walk lengths, §III-D).
func (in Inserter) InsertEdgeN(e msp.KmerEdge, n uint32) (int, error) {
	if n == 0 {
		return 0, nil
	}
	slot, inserted, probes, err := in.t.findOrInsert(e.Canon, in.sh)
	if err != nil {
		return probes, err
	}
	if inserted {
		in.sh.inserts.Add(1)
	} else {
		in.sh.updates.Add(1)
	}
	addEdge(in.t.counts[slot*countersPerSlot:][:countersPerSlot], e, n)
	return probes, nil
}

// addEdge adds n to each of an entry's counters that the edge names.
func addEdge(counts []uint32, e msp.KmerEdge, n uint32) {
	if e.Left != msp.NoBase {
		atomic.AddUint32(&counts[e.Left], n)
	}
	if e.Right != msp.NoBase {
		atomic.AddUint32(&counts[4+int(e.Right)], n)
	}
}

// findOrInsert locates the slot holding km, claiming an empty slot when the
// key is new. It reports whether this call performed the insertion and how
// many slots it probed; probe-walk work is accounted to the caller's shard.
func (t *Table) findOrInsert(km dna.Kmer, sh *metricsShard) (slot int, inserted bool, probes int, err error) {
	h := km.Hash()
	for i := uint64(0); i <= t.mask; i++ {
		idx := (h + i) & t.mask
		probes++
	slotLoop:
		for {
			switch atomic.LoadUint32(&t.states[idx]) {
			case stateOccupied:
				// Occupied keys are immutable: the occupied store
				// happens-after the key write, so a plain read here is
				// ordered by the atomic load above.
				if t.keysHi[idx] == km.Hi && t.keysLo[idx] == km.Lo {
					sh.probes.Add(int64(probes))
					return int(idx), false, probes, nil
				}
				break slotLoop // probe next slot
			case stateEmpty:
				if atomic.CompareAndSwapUint32(&t.states[idx], stateEmpty, stateLocked) {
					t.keysHi[idx] = km.Hi
					t.keysLo[idx] = km.Lo
					atomic.StoreUint32(&t.states[idx], stateOccupied)
					t.distinct.Add(1)
					sh.probes.Add(int64(probes))
					return int(idx), true, probes, nil
				}
				// Lost the race; the slot is now locked or occupied —
				// re-examine it.
				sh.casFailures.Add(1)
			case stateLocked:
				// Another thread is writing this key; per the paper,
				// readers of a locked entry block until it turns occupied.
				sh.lockWaits.Add(1)
				runtime.Gosched()
			}
		}
	}
	return 0, false, probes, ErrTableFull
}

// Lookup returns the edge counters for a canonical k-mer, if present.
// Concurrent with writers, the returned counts are a consistent-enough
// snapshot for monotonic counters (each counter is read atomically).
func (t *Table) Lookup(km dna.Kmer) (Entry, bool) {
	h := km.Hash()
	for i := uint64(0); i <= t.mask; i++ {
		idx := (h + i) & t.mask
		switch atomic.LoadUint32(&t.states[idx]) {
		case stateEmpty:
			return Entry{}, false
		case stateOccupied:
			if t.keysHi[idx] == km.Hi && t.keysLo[idx] == km.Lo {
				return t.entryAt(int(idx)), true
			}
		case stateLocked:
			// Treat in-flight insertions as not-yet-present; Lookup is used
			// after construction, where no slot stays locked.
			return Entry{}, false
		}
	}
	return Entry{}, false
}

// Entry is a materialised <vertex, edge counters> pair.
type Entry struct {
	// Kmer is the canonical vertex.
	Kmer dna.Kmer
	// Counts holds edge multiplicities: Counts[0..3] neighbours on the
	// left side by base, Counts[4..7] on the right side.
	Counts [countersPerSlot]uint32
}

// Degree returns the number of distinct neighbouring (side, base) edges.
func (e Entry) Degree() int {
	d := 0
	for _, c := range e.Counts {
		if c > 0 {
			d++
		}
	}
	return d
}

// Multiplicity returns the total number of edge observations.
func (e Entry) Multiplicity() int {
	m := 0
	for _, c := range e.Counts {
		m += int(c)
	}
	return m
}

func (t *Table) entryAt(idx int) Entry {
	var e Entry
	e.Kmer = dna.Kmer{Hi: t.keysHi[idx], Lo: t.keysLo[idx]}
	base := idx * countersPerSlot
	for j := 0; j < countersPerSlot; j++ {
		e.Counts[j] = atomic.LoadUint32(&t.counts[base+j])
	}
	return e
}

// ForEach visits every occupied entry. It must not run concurrently with
// writers if a consistent snapshot is required.
func (t *Table) ForEach(fn func(Entry)) {
	for idx := range t.states {
		if atomic.LoadUint32(&t.states[idx]) == stateOccupied {
			fn(t.entryAt(idx))
		}
	}
}

// Reset clears the table for reuse on the next partition, retaining its
// allocation. Work counters reset too, so a reused table reports per-
// partition metrics rather than inflated cumulative ones; callers that want
// cumulative figures should Metrics().Snapshot() before resetting. It must
// not run concurrently with other operations.
func (t *Table) Reset() {
	for i := range t.states {
		t.states[i] = stateEmpty
	}
	for i := range t.counts {
		t.counts[i] = 0
	}
	t.distinct.Store(0)
	t.metrics.Reset()
}

// Reusable reports whether t, once ResetTo(capacity), is indistinguishable
// from what New(k, capacity) would build: the same k-mer length, and an
// allocation with room for the rounded slot count, which ResetTo then uses
// exactly — hence the same probe sequences, counters and MemoryBytes. A
// table is reusable at its own size and at every smaller one, so a recycled
// table serves partitions on both sides of a power-of-two boundary. A nil t
// is not.
func Reusable(t *Table, k, capacity int) bool {
	return t != nil && capacity >= 1 && t.k == k && int64(cap(t.states)) >= roundedSlots(capacity)
}

// ResetTo is Reset at the slot count New(k, capacity) would build, within
// t's allocation; t must be Reusable for capacity. It must not run
// concurrently with other operations.
func (t *Table) ResetTo(capacity int) {
	n := int(roundedSlots(capacity))
	t.mask = uint64(n - 1)
	t.states, t.keysHi, t.keysLo = t.states[:n], t.keysHi[:n], t.keysLo[:n]
	t.counts = t.counts[:n*countersPerSlot]
	t.Reset()
}

// Grow returns a table with twice the capacity containing all current
// entries. It is the resizing fallback the paper's Property 1 sizing is
// designed to avoid; the resizing ablation uses it deliberately.
// It must not run concurrently with writers.
func (t *Table) Grow() (*Table, error) {
	bigger, err := New(t.k, 2*t.Capacity())
	if err != nil {
		return nil, err
	}
	var growErr error
	rehash := bigger.metrics.shard(0)
	t.ForEach(func(e Entry) {
		if growErr != nil {
			return
		}
		slot, _, _, err := bigger.findOrInsert(e.Kmer, rehash)
		if err != nil {
			growErr = err
			return
		}
		base := slot * countersPerSlot
		for j := 0; j < countersPerSlot; j++ {
			bigger.counts[base+j] = e.Counts[j]
		}
	})
	if growErr != nil {
		return nil, growErr
	}
	// Carry work counters across so metrics stay cumulative. The rehash walk
	// above accounted probes of its own; discard those first so the
	// replacement reports exactly the original's counters, as it always has.
	bigger.metrics.Reset()
	bigger.metrics.add(t.metrics.Snapshot())
	return bigger, nil
}

// ContentionReduction returns the fraction of key accesses that avoided
// locking thanks to the state-transfer mechanism: Updates/(Inserts+Updates).
// On the paper's datasets this is about 0.8 ("reduce the contentious lock
// on the keys by 80%").
func (t *Table) ContentionReduction() float64 {
	return t.metrics.Snapshot().ContentionReduction()
}
