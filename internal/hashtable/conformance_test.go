package hashtable_test

import (
	"testing"

	"parahash/internal/hashtable"
	"parahash/internal/hashtable/hashtabletest"
)

// TestKmerTableConformance runs the table contract suite over the
// state-transfer table. CI runs this under the race detector; the suite's
// concurrent-insert subtests, plain and weighted, are the linearizability
// check.
func TestKmerTableConformance(t *testing.T) {
	t.Run("statetransfer", func(t *testing.T) {
		hashtabletest.Run(t, func(t *testing.T, k, capacity int) *hashtable.Table {
			tab, err := hashtable.New(k, capacity)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", k, capacity, err)
			}
			return tab
		})
	})
}

// TestMemoryBytesForBackend checks the admission-weight predictor agrees with
// what a freshly built table actually reports, whether the table comes from
// New or from the deprecated name-taking NewBackend — the Step 2 memory gate
// admits partitions by the prediction, so a divergence would let real
// residency exceed the budget.
func TestMemoryBytesForBackend(t *testing.T) {
	const capacity = 1 << 14
	predicted := hashtable.MemoryBytesFor(capacity)
	for _, k := range []int{27, 33} {
		tab, err := hashtable.New(k, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.MemoryBytes(); got != predicted {
			t.Errorf("New k=%d: MemoryBytes() = %d, predictor says %d", k, got, predicted)
		}
		for _, name := range []string{"statetransfer", "lockfree", "sharded"} {
			tab, err := hashtable.NewBackend(name, k, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.MemoryBytes(); got != predicted {
				t.Errorf("NewBackend(%q) k=%d: MemoryBytes() = %d, predictor says %d", name, k, got, predicted)
			}
		}
	}
}
