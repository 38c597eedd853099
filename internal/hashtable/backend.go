// KmerTable backends.
//
// The paper commits to a single hash-table design — the state-transfer
// open-addressing table of §III-C — but the design space around it is real:
// Górniak & Nowak ("Lock-free de Bruijn graph") build the same
// <vertex, edge counters> map with pure CAS insertion and no waiting state,
// and Tripathy & Green ("Scalable Hash Table for NUMA Systems") partition
// the table into independent shards so threads contend only within a
// fraction of the key space. KmerTable abstracts the contract all three
// share, so Step 2 can run any of them behind a flag and the benchmarks can
// compare them under identical workloads.
//
// A backend is free to choose its slot layout, probe discipline and
// synchronisation, but must uphold the invariants that make the final graph
// byte-identical across backends (see DESIGN.md §13):
//
//   - keys are canonical k-mers, compared by exact (Hi, Lo) value;
//   - duplicate inserts are idempotent on the key set and additive on the
//     edge counters (each observed (side, base) increments exactly once, and
//     a weighted InsertEdgeN by exactly its weight);
//   - concurrent InsertEdge/InsertEdgeN calls from any number of Inserter
//     handles are linearizable with respect to the key set and counter
//     totals;
//   - ForEach visits every entry exactly once in some arbitrary order —
//     determinism of the output comes from the collector's post-sort, never
//     from table iteration order;
//   - a full table reports ErrTableFull (typed), so the bounded Step 2
//     resize loop works identically for every backend.
package hashtable

import (
	"fmt"

	"parahash/internal/dna"
	"parahash/internal/msp"
)

// Backend names a KmerTable implementation.
type Backend string

// The production-candidate backends.
const (
	// BackendStateTransfer is the paper's empty→locked→occupied
	// open-addressing table (§III-C), the reference implementation.
	BackendStateTransfer Backend = "statetransfer"
	// BackendLockFree is the CAS-insertion table after Górniak & Nowak:
	// a slot is claimed by a single compare-and-swap on one word, with no
	// locked state for readers to wait on (k ≤ 31; longer k-mers add a
	// bounded commit wait, see LockFreeTable).
	BackendLockFree Backend = "lockfree"
	// BackendSharded is the shard-partitioned table after Tripathy &
	// Green: the high bits of the canonical k-mer hash select an
	// independent shard region, so threads contend only within 1/S of the
	// key space.
	BackendSharded Backend = "sharded"
)

// Backends lists every selectable backend, reference implementation first.
func Backends() []Backend {
	return []Backend{BackendStateTransfer, BackendLockFree, BackendSharded}
}

// ParseBackend resolves a backend name; the empty string selects the
// reference state-transfer table so zero-valued configs keep their old
// behaviour.
func ParseBackend(name string) (Backend, error) {
	switch Backend(name) {
	case "", BackendStateTransfer:
		return BackendStateTransfer, nil
	case BackendLockFree:
		return BackendLockFree, nil
	case BackendSharded:
		return BackendSharded, nil
	default:
		return "", fmt.Errorf("hashtable: unknown backend %q (have %v)", name, Backends())
	}
}

// Inserter is a per-worker insertion handle. Handles accounting to distinct
// workers never contend on metrics cache lines; any number of handles may
// insert concurrently into the same table.
type Inserter interface {
	// InsertEdgeN records n identical canonical-oriented k-mer observations
	// with one table operation: the vertex is inserted if absent and each
	// counter the edge names grows by n (modulo 2^32, as n single adds
	// would), so the entry ends exactly as after n InsertEdge calls. The
	// call counts one insert or one update, whatever n; n = 0 records
	// nothing. It returns the probe walk length, which the simulated GPU
	// uses to model intra-warp divergence.
	InsertEdgeN(e msp.KmerEdge, n uint32) (probes int, err error)
	// InsertEdge is InsertEdgeN(e, 1) without the probe count.
	InsertEdge(e msp.KmerEdge) error
	// InsertEdgeCounted is InsertEdgeN(e, 1).
	InsertEdgeCounted(e msp.KmerEdge) (int, error)
}

// KmerTable is the contract a Step 2 hash-table backend implements. All
// methods except ForEach, Reset and Grow are safe for concurrent use.
type KmerTable interface {
	// K returns the k-mer length the table was built for.
	K() int
	// Capacity returns the number of slots.
	Capacity() int
	// Len returns the number of distinct vertices inserted so far.
	Len() int
	// MemoryBytes reports the allocated footprint, for Property 1 memory
	// accounting and the admission controller.
	MemoryBytes() int64
	// Metrics exposes the table's sharded work counters.
	Metrics() *Metrics
	// Inserter returns the insertion handle for a worker index.
	Inserter(worker int) Inserter
	// InsertEdge records one observation through worker handle 0.
	InsertEdge(e msp.KmerEdge) error
	// Lookup returns the edge counters for a canonical k-mer, if present.
	Lookup(km dna.Kmer) (Entry, bool)
	// ForEach visits every occupied entry, in backend-defined order. It
	// must not run concurrently with writers.
	ForEach(fn func(Entry))
	// Reset clears the table (and its metrics) for reuse, retaining the
	// allocation. It must not run concurrently with other operations.
	Reset()
	// Grow returns a table of the same backend with twice the capacity
	// containing all current entries; accumulated Metrics carry over so
	// counters stay monotonic across resizes. It must not run concurrently
	// with writers.
	Grow() (KmerTable, error)
}

// Interface conformance of the three production candidates.
var (
	_ KmerTable = (*Table)(nil)
	_ KmerTable = (*LockFreeTable)(nil)
	_ KmerTable = (*ShardedTable)(nil)
)

// NewBackend creates a table of the selected backend with at least the
// given slot capacity for k-mers of length k. An empty backend name selects
// the state-transfer reference.
func NewBackend(b Backend, k, capacity int) (KmerTable, error) {
	switch b {
	case "", BackendStateTransfer:
		return New(k, capacity)
	case BackendLockFree:
		return NewLockFree(k, capacity)
	case BackendSharded:
		return NewSharded(k, capacity)
	default:
		return nil, fmt.Errorf("hashtable: unknown backend %q (have %v)", b, Backends())
	}
}

// Reusable reports whether t, once Reset, is indistinguishable from what
// NewBackend(b, k, capacity) would build: the same backend, k-mer length and
// rounded slot count, hence the same layout, probe sequences and counters.
func Reusable(t KmerTable, b Backend, k, capacity int) bool {
	if t == nil || capacity < 1 || t.K() != k || int64(t.Capacity()) != roundedSlots(capacity) {
		return false
	}
	switch t.(type) {
	case *Table:
		return b == "" || b == BackendStateTransfer
	case *LockFreeTable:
		return b == BackendLockFree
	case *ShardedTable:
		return b == BackendSharded
	}
	return false
}

// MemoryBytesForBackend returns the footprint a table of the given backend
// and slot capacity would allocate (after rounding), so the Step 2
// admission controller and the GPU device-memory check charge exactly the
// bytes the selected backend will claim. k matters: the lock-free table
// stores k ≤ 31 keys inside its tag word and needs no key arrays.
func MemoryBytesForBackend(b Backend, k, capacity int) int64 {
	switch b {
	case BackendLockFree:
		return lockFreeMemoryBytesFor(k, capacity)
	case BackendSharded:
		return shardedMemoryBytesFor(capacity)
	default:
		return MemoryBytesFor(capacity)
	}
}
