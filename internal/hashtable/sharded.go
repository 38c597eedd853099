package hashtable

import (
	"parahash/internal/dna"
	"parahash/internal/msp"
)

// Shard partitioning constants. A table is cut into independent regions
// only when each region keeps at least minShardSlots slots — small tables
// see no contention worth paying routing overhead for — and never into more
// than maxShards regions (a power of two comfortably above the core counts
// this repo targets; Tripathy & Green shard per NUMA node, far fewer).
const (
	maxShards     = 64
	minShardSlots = 1024
)

// numShardsFor returns the shard count for a total slot capacity: the
// largest power of two ≤ maxShards that keeps every shard at or above
// minShardSlots. Both capacity (after constructor rounding) and the result
// are powers of two, so slots divide exactly and the sharded layout
// allocates the same total slot count as the monolithic one.
func numShardsFor(capacity int) int {
	n := roundedSlots(capacity)
	s := 1
	for s < maxShards && n/int64(2*s) >= minShardSlots {
		s *= 2
	}
	return s
}

// ShardedTable is the shard-partitioned table after Tripathy & Green
// ("Scalable Hash Table for NUMA Systems"): the high bits of the canonical
// k-mer hash select one of S independent regions, so concurrent workers
// contend only within 1/S of the key space — probe walks, CAS claims and
// counter increments in different shards touch disjoint cache lines, and on
// a NUMA machine each region can live on one node. Each region is a
// state-transfer table (the paper's §III-C design) probing with the same
// hash value whose low bits index within the region, so routing and probing
// share one hash computation per edge.
//
// Worker metrics are accounted into the parent's sharded Metrics through
// the per-worker handles, exactly as in the monolithic backends.
type ShardedTable struct {
	k      int
	shift  uint // 64 - log2(len(shards)); x>>64 == 0 covers the 1-shard case
	shards []*Table

	metrics Metrics
}

// NewSharded creates a shard-partitioned table with at least the given
// total slot capacity (rounded up to a power of two) for k-mers of length
// k. The shard count is a pure function of the capacity, so memory
// prediction and construction always agree.
func NewSharded(k, capacity int) (*ShardedTable, error) {
	// Validate k and the capacity range through the reference constructor's
	// rules before carving shards.
	if _, err := New(k, 8); err != nil {
		return nil, err
	}
	n := roundedSlots(capacity)
	s := numShardsFor(capacity)
	per := int(n) / s
	if per < 8 {
		per = 8
	}
	t := &ShardedTable{
		k:      k,
		shift:  uint(64 - log2(s)),
		shards: make([]*Table, s),
	}
	for i := range t.shards {
		shard, err := New(k, per)
		if err != nil {
			return nil, err
		}
		t.shards[i] = shard
	}
	return t, nil
}

// log2 returns the base-2 logarithm of a power of two.
func log2(s int) int {
	n := 0
	for s > 1 {
		s >>= 1
		n++
	}
	return n
}

// shardedMemoryBytesFor returns the footprint NewSharded(k, capacity) would
// allocate: the per-shard layout is the reference one, and slots divide
// exactly, so this equals the monolithic prediction except for the 8-slot
// floor on absurdly small shard sizes.
func shardedMemoryBytesFor(capacity int) int64 {
	n := roundedSlots(capacity)
	s := int64(numShardsFor(capacity))
	per := n / s
	if per < 8 {
		per = 8
	}
	return s * MemoryBytesFor(int(per))
}

// shardOf routes a key hash to its region.
func (t *ShardedTable) shardOf(h uint64) *Table { return t.shards[h>>t.shift] }

// K returns the k-mer length the table was built for.
func (t *ShardedTable) K() int { return t.k }

// NumShards returns the region count.
func (t *ShardedTable) NumShards() int { return len(t.shards) }

// Capacity returns the total number of slots across all shards.
func (t *ShardedTable) Capacity() int {
	n := 0
	for _, s := range t.shards {
		n += s.Capacity()
	}
	return n
}

// Len returns the number of distinct vertices inserted so far.
func (t *ShardedTable) Len() int {
	n := 0
	for _, s := range t.shards {
		n += s.Len()
	}
	return n
}

// Metrics exposes the table's work counters.
func (t *ShardedTable) Metrics() *Metrics { return &t.metrics }

// MemoryBytes reports the table's allocated footprint.
func (t *ShardedTable) MemoryBytes() int64 {
	var n int64
	for _, s := range t.shards {
		n += s.MemoryBytes()
	}
	return n
}

// shardedInserter is the per-worker insertion handle.
type shardedInserter struct {
	t  *ShardedTable
	sh *metricsShard
}

// Inserter returns the insertion handle for a worker index.
func (t *ShardedTable) Inserter(worker int) Inserter {
	return shardedInserter{t: t, sh: t.metrics.handleShard(worker)}
}

// InsertEdge records one observation through worker handle 0.
func (t *ShardedTable) InsertEdge(e msp.KmerEdge) error {
	_, err := t.Inserter(0).InsertEdgeCounted(e)
	return err
}

// InsertEdge records one observation through the handle's counter shard.
func (in shardedInserter) InsertEdge(e msp.KmerEdge) error {
	_, err := in.InsertEdgeN(e, 1)
	return err
}

// InsertEdgeCounted is InsertEdge returning the probe walk length (within
// the key's shard region).
func (in shardedInserter) InsertEdgeCounted(e msp.KmerEdge) (int, error) {
	return in.InsertEdgeN(e, 1)
}

// InsertEdgeN records n identical observations through the handle's counter
// shard.
func (in shardedInserter) InsertEdgeN(e msp.KmerEdge, n uint32) (int, error) {
	if n == 0 {
		return 0, nil
	}
	h := e.Canon.Hash()
	return in.t.shardOf(h).insertEdgeHashed(h, e, n, in.sh)
}

// Lookup returns the edge counters for a canonical k-mer, if present.
func (t *ShardedTable) Lookup(km dna.Kmer) (Entry, bool) {
	return t.shardOf(km.Hash()).Lookup(km)
}

// ForEach visits every occupied entry, shard by shard. It must not run
// concurrently with writers if a consistent snapshot is required.
func (t *ShardedTable) ForEach(fn func(Entry)) {
	for _, s := range t.shards {
		s.ForEach(fn)
	}
}

// Reset clears every shard (and the metrics) for reuse, retaining the
// allocations. It must not run concurrently with other operations.
func (t *ShardedTable) Reset() {
	for _, s := range t.shards {
		s.Reset()
	}
	t.metrics.Reset()
}

// Grow returns a sharded table with twice the total capacity containing all
// current entries, carrying the accumulated work counters so metrics stay
// monotonic across resizes. Doubling the total may also double the shard
// count (the shard-count rule sees the larger capacity), which is exactly
// the NUMA paper's growth story: more capacity, more independent regions.
// It must not run concurrently with writers.
func (t *ShardedTable) Grow() (KmerTable, error) {
	bigger, err := NewSharded(t.k, 2*t.Capacity())
	if err != nil {
		return nil, err
	}
	var growErr error
	rehash := bigger.metrics.shard(0)
	t.ForEach(func(e Entry) {
		if growErr != nil {
			return
		}
		h := e.Kmer.Hash()
		shard := bigger.shardOf(h)
		slot, _, _, err := shard.findOrInsertHashed(h, e.Kmer, rehash)
		if err != nil {
			growErr = err
			return
		}
		base := slot * countersPerSlot
		for j := 0; j < countersPerSlot; j++ {
			shard.counts[base+j] = e.Counts[j]
		}
	})
	if growErr != nil {
		return nil, growErr
	}
	bigger.metrics.Reset()
	bigger.metrics.add(t.metrics.Snapshot())
	return bigger, nil
}
