package core

import "testing"

// TestResizeLoopKeepsCounters is the regression test for the Step 2 resize
// loop dropping hash-work counters: a deliberately under-sized table (tiny λ)
// forces ErrTableFull rebuilds, and the failed attempts' inserts/probes must
// still land in the run stats. Before the fix the counters only reflected
// the final successful attempt, so resizing partitions under-reported work.
// It runs as a subtest named for the state-transfer table, Step 2's table.
func TestResizeLoopKeepsCounters(t *testing.T) {
	reads := tinyReads(t)
	t.Run("statetransfer", func(t *testing.T) {
		// Control: properly pre-sized build, no resizes expected.
		sized, err := Build(reads, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}

		// Same input with λ small enough that Property 1 under-sizes every
		// partition and the resize fallback must engage.
		cfg := tinyConfig()
		cfg.Lambda = 0.01
		resized, err := Build(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if !resized.Graph.Equal(sized.Graph) {
			t.Fatal("resized build produced a different graph")
		}
		// The final successful attempts alone perform exactly the sized
		// build's work; wasted attempts must push the totals strictly past
		// it. (Inserts is the load-bearing counter: one per distinct key
		// per attempt.)
		s, r := sized.Stats.Hash, resized.Stats.Hash
		if r.Inserts <= s.Inserts {
			t.Errorf("resize-loop Inserts = %d, want > %d (wasted attempts must be counted)",
				r.Inserts, s.Inserts)
		}
		if r.Probes <= s.Probes {
			t.Errorf("resize-loop Probes = %d, want > %d", r.Probes, s.Probes)
		}
	})
}
