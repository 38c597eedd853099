package hashtable

import (
	"runtime"
	"testing"
)

// TestHandleShardSingleProcFastPath pins the single-processor counter
// routing: with GOMAXPROCS=1 there is no contention to shard away, so every
// Inserter handle must share shard 0 (one hot cache line), while with more
// processors distinct workers must get distinct shards. This is the
// structural guard for the 0.88× single-worker regression the padded
// counters introduced.
func TestHandleShardSingleProcFastPath(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	var m Metrics
	runtime.GOMAXPROCS(1)
	base := m.handleShard(0)
	for _, w := range []int{1, 2, 7, metricsShards + 3} {
		if m.handleShard(w) != base {
			t.Errorf("GOMAXPROCS=1: worker %d routed off shard 0", w)
		}
	}

	runtime.GOMAXPROCS(2)
	if m.handleShard(1) == base {
		t.Error("GOMAXPROCS=2: worker 1 still on shard 0 — contention sharding disabled")
	}
	if m.handleShard(0) != base {
		t.Error("GOMAXPROCS=2: worker 0 moved off shard 0")
	}

	// Totals are routing-independent: counts landed on any shard must all
	// surface in Snapshot.
	m.handleShard(0).inserts.Add(2)
	m.handleShard(5).inserts.Add(3)
	if got := m.Snapshot().Inserts; got != 5 {
		t.Errorf("Snapshot.Inserts = %d, want 5", got)
	}
}

// TestSnapshotRatios holds the one definition of each ratio derived from the
// counters — the figures the CLI prints and parahash.metrics/v1 renders — to
// its formula, the empty snapshot included, and Add to a field-wise sum.
func TestSnapshotRatios(t *testing.T) {
	var empty Snapshot
	if got := empty.ContentionReduction(); got != 0 {
		t.Errorf("empty contention reduction = %g, want 0", got)
	}
	if got := empty.ProbesPerAccess(); got != 0 {
		t.Errorf("empty probes per access = %g, want 0", got)
	}
	s := Snapshot{Inserts: 200, Updates: 800, Probes: 1100}
	if got := s.ContentionReduction(); got != 0.8 {
		t.Errorf("contention reduction = %g, want 0.8", got)
	}
	if got := s.ProbesPerAccess(); got != 1.1 {
		t.Errorf("probes per access = %g, want 1.1", got)
	}
	sum := Snapshot{Inserts: 1, Updates: 2, Probes: 3, LockWaits: 4, CASFailures: 5}
	sum.Add(Snapshot{Inserts: 10, Updates: 20, Probes: 30, LockWaits: 40, CASFailures: 50})
	if want := (Snapshot{11, 22, 33, 44, 55}); sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
}
