package hashtable

import (
	"runtime"
	"sync/atomic"

	"parahash/internal/dna"
	"parahash/internal/msp"
)

// tagOccupied marks a lock-free slot's tag word as claimed. The payload
// bits below it hold either the full packed k-mer (k ≤ 31, which spans at
// most 62 bits) or a 63-bit hash fingerprint (k ≥ 32).
const tagOccupied = uint64(1) << 63

// LockFreeTable is the CAS-insertion open-addressing table after Górniak &
// Nowak ("Lock-free de Bruijn graph"): where the paper's state-transfer
// table serialises each entry's key write behind a transient locked state —
// forcing concurrent readers of that slot to wait — this design claims a
// slot with a single compare-and-swap on one tag word that already carries
// the key identity. There is no locked state: a reader observes a slot
// either empty or carrying a complete, comparable tag.
//
//   - k ≤ 31 (the paper's k=27 domain): the packed k-mer itself is the tag
//     payload, so insertion is one CAS and the structure is genuinely
//     lock-free — no thread ever waits on another, and LockWaits is always
//     zero. No separate key arrays exist, which also makes each slot 12
//     bytes smaller than the state-transfer layout.
//   - k ≥ 32: the key spans up to 126 bits and cannot travel inside one
//     word, so the tag payload is a 63-bit hash fingerprint and the full
//     key is committed right after the winning CAS (plain stores published
//     by an atomic ready flag). A reader that matches a fingerprint whose
//     key is still in flight briefly yields until the commit lands —
//     a bounded wait on one store, accounted in LockWaits; fingerprint
//     collisions between distinct keys are resolved by comparing the
//     committed key and probing on.
//
// Edge-multiplicity updates are plain atomic increments in both regimes,
// exactly as in the reference table.
type LockFreeTable struct {
	k       int
	mask    uint64
	compact bool // k ≤ 31: tags carry the full key; no key arrays

	tags   []uint64
	keysHi []uint64 // nil in compact mode
	keysLo []uint64 // nil in compact mode
	ready  []uint32 // nil in compact mode
	counts []uint32

	// distinct is padded onto a cache line of its own, as in Table.
	_        [64]byte
	distinct atomic.Int64
	_        [56]byte
	metrics  Metrics
}

// compactKmerMaxK is the largest k whose packed form (2k bits) leaves the
// tag's occupancy bit free, enabling the single-word lock-free regime.
const compactKmerMaxK = 31

// NewLockFree creates a lock-free table with at least the given capacity
// (rounded up to a power of two) for k-mers of length k.
func NewLockFree(k, capacity int) (*LockFreeTable, error) {
	// Reuse the reference constructor for validation and rounding.
	base, err := New(k, capacity)
	if err != nil {
		return nil, err
	}
	n := base.Capacity()
	t := &LockFreeTable{
		k:       k,
		mask:    uint64(n - 1),
		compact: k <= compactKmerMaxK,
		tags:    make([]uint64, n),
		counts:  make([]uint32, n*countersPerSlot),
	}
	if !t.compact {
		t.keysHi = make([]uint64, n)
		t.keysLo = make([]uint64, n)
		t.ready = make([]uint32, n)
	}
	return t, nil
}

// lockFreeMemoryBytesFor returns the footprint NewLockFree(k, capacity)
// would allocate: tags + counters, plus key arrays and ready flags only
// beyond the compact-key regime.
func lockFreeMemoryBytesFor(k, capacity int) int64 {
	n := roundedSlots(capacity)
	bytes := n*8 + n*countersPerSlot*4
	if k > compactKmerMaxK {
		bytes += n*8*2 + n*4
	}
	return bytes
}

// tag returns the slot tag identifying km: the packed key itself in compact
// mode, its hash fingerprint otherwise. h must be km.Hash().
func (t *LockFreeTable) tag(h uint64, km dna.Kmer) uint64 {
	if t.compact {
		return km.Lo | tagOccupied
	}
	return h | tagOccupied
}

// K returns the k-mer length the table was built for.
func (t *LockFreeTable) K() int { return t.k }

// Capacity returns the number of slots.
func (t *LockFreeTable) Capacity() int { return len(t.tags) }

// Len returns the number of distinct vertices inserted so far.
func (t *LockFreeTable) Len() int { return int(t.distinct.Load()) }

// Metrics exposes the table's work counters.
func (t *LockFreeTable) Metrics() *Metrics { return &t.metrics }

// MemoryBytes reports the table's allocated footprint.
func (t *LockFreeTable) MemoryBytes() int64 {
	return lockFreeMemoryBytesFor(t.k, len(t.tags))
}

// lockFreeInserter is the per-worker insertion handle.
type lockFreeInserter struct {
	t  *LockFreeTable
	sh *metricsShard
}

// Inserter returns the insertion handle for a worker index.
func (t *LockFreeTable) Inserter(worker int) Inserter {
	return lockFreeInserter{t: t, sh: t.metrics.handleShard(worker)}
}

// InsertEdge records one observation through worker handle 0.
func (t *LockFreeTable) InsertEdge(e msp.KmerEdge) error {
	_, err := t.Inserter(0).InsertEdgeCounted(e)
	return err
}

// InsertEdge records one observation through the handle's counter shard.
func (in lockFreeInserter) InsertEdge(e msp.KmerEdge) error {
	_, err := in.InsertEdgeN(e, 1)
	return err
}

// InsertEdgeCounted is InsertEdge returning the probe walk length.
func (in lockFreeInserter) InsertEdgeCounted(e msp.KmerEdge) (int, error) {
	return in.InsertEdgeN(e, 1)
}

// InsertEdgeN records n identical observations through the handle's counter
// shard.
func (in lockFreeInserter) InsertEdgeN(e msp.KmerEdge, n uint32) (int, error) {
	if n == 0 {
		return 0, nil
	}
	t := in.t
	slot, inserted, probes, err := t.findOrInsert(e.Canon.Hash(), e.Canon, in.sh)
	if err != nil {
		return probes, err
	}
	countInsert(in.sh, inserted)
	addEdge(t.counts[slot*countersPerSlot:][:countersPerSlot], e, n)
	return probes, nil
}

// findOrInsert locates the slot holding km (hash h), claiming an empty slot
// via CAS when the key is new.
func (t *LockFreeTable) findOrInsert(h uint64, km dna.Kmer, sh *metricsShard) (slot int, inserted bool, probes int, err error) {
	tag := t.tag(h, km)
	for i := uint64(0); i <= t.mask; i++ {
		idx := (h + i) & t.mask
		probes++
	slotLoop:
		for {
			switch cur := atomic.LoadUint64(&t.tags[idx]); cur {
			case 0:
				if atomic.CompareAndSwapUint64(&t.tags[idx], 0, tag) {
					if !t.compact {
						// Commit the full key; the release store on ready
						// publishes both words to fingerprint-matching
						// readers.
						t.keysHi[idx] = km.Hi
						t.keysLo[idx] = km.Lo
						atomic.StoreUint32(&t.ready[idx], 1)
					}
					t.distinct.Add(1)
					sh.probes.Add(int64(probes))
					return int(idx), true, probes, nil
				}
				// Lost the claim race; re-examine the slot's new tag.
				sh.casFailures.Add(1)
			case tag:
				if t.compact {
					// The tag is the full key: an exact match, no waiting
					// possible by construction.
					sh.probes.Add(int64(probes))
					return int(idx), false, probes, nil
				}
				// Fingerprint match: wait out an in-flight commit (bounded —
				// one store by the claiming thread), then verify the key.
				for atomic.LoadUint32(&t.ready[idx]) == 0 {
					sh.lockWaits.Add(1)
					runtime.Gosched()
				}
				if t.keysHi[idx] == km.Hi && t.keysLo[idx] == km.Lo {
					sh.probes.Add(int64(probes))
					return int(idx), false, probes, nil
				}
				break slotLoop // fingerprint collision: probe on
			default:
				break slotLoop // different key: probe on
			}
		}
	}
	return 0, false, probes, ErrTableFull
}

// Lookup returns the edge counters for a canonical k-mer, if present.
// An entry whose key commit is still in flight reads as absent, mirroring
// the reference table's treatment of locked slots; Lookup is used after
// construction, where no commit stays in flight.
func (t *LockFreeTable) Lookup(km dna.Kmer) (Entry, bool) {
	h := km.Hash()
	tag := t.tag(h, km)
	for i := uint64(0); i <= t.mask; i++ {
		idx := (h + i) & t.mask
		cur := atomic.LoadUint64(&t.tags[idx])
		if cur == 0 {
			return Entry{}, false
		}
		if cur != tag {
			continue
		}
		if t.compact {
			return t.entryAt(int(idx)), true
		}
		if atomic.LoadUint32(&t.ready[idx]) == 0 {
			return Entry{}, false
		}
		if t.keysHi[idx] == km.Hi && t.keysLo[idx] == km.Lo {
			return t.entryAt(int(idx)), true
		}
	}
	return Entry{}, false
}

// entryAt materialises the occupied slot idx.
func (t *LockFreeTable) entryAt(idx int) Entry {
	var e Entry
	if t.compact {
		e.Kmer = dna.Kmer{Lo: t.tags[idx] &^ tagOccupied}
	} else {
		e.Kmer = dna.Kmer{Hi: t.keysHi[idx], Lo: t.keysLo[idx]}
	}
	base := idx * countersPerSlot
	for j := 0; j < countersPerSlot; j++ {
		e.Counts[j] = atomic.LoadUint32(&t.counts[base+j])
	}
	return e
}

// ForEach visits every occupied entry. It must not run concurrently with
// writers if a consistent snapshot is required.
func (t *LockFreeTable) ForEach(fn func(Entry)) {
	for idx := range t.tags {
		if atomic.LoadUint64(&t.tags[idx]) != 0 {
			fn(t.entryAt(idx))
		}
	}
}

// Reset clears the table (and its metrics) for reuse, retaining the
// allocation. It must not run concurrently with other operations.
func (t *LockFreeTable) Reset() {
	for i := range t.tags {
		t.tags[i] = 0
	}
	for i := range t.ready {
		t.ready[i] = 0
	}
	for i := range t.counts {
		t.counts[i] = 0
	}
	t.distinct.Store(0)
	t.metrics.Reset()
}

// Grow returns a lock-free table with twice the capacity containing all
// current entries, carrying the accumulated work counters so metrics stay
// monotonic across resizes. It must not run concurrently with writers.
func (t *LockFreeTable) Grow() (KmerTable, error) {
	bigger, err := NewLockFree(t.k, 2*t.Capacity())
	if err != nil {
		return nil, err
	}
	var growErr error
	rehash := bigger.metrics.shard(0)
	t.ForEach(func(e Entry) {
		if growErr != nil {
			return
		}
		slot, _, _, err := bigger.findOrInsert(e.Kmer.Hash(), e.Kmer, rehash)
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
	// Discard the rehash walk's own accounting and carry the original
	// counters across, matching the reference table's Grow semantics.
	bigger.metrics.Reset()
	bigger.metrics.add(t.metrics.Snapshot())
	return bigger, nil
}
