package device

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"parahash/internal/costmodel"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
)

// recycleParts cuts the test superkmers into partitions of two sizes, so a
// processor walking them meets both a table it can reuse and one it cannot.
func recycleParts(t *testing.T) [][]msp.Superkmer {
	t.Helper()
	sks := gatherSuperkmers(t, testReads(t), 27, 11)
	n := len(sks)
	return [][]msp.Superkmer{sks[:n/4], sks[n/4 : n/2], sks[n/2 : n/2+n/16], sks[n/2+n/16 : n/2+n/8], sks[n/2:]}
}

func slotsFor(sks []msp.Superkmer) int {
	var kmers int64
	for _, sk := range sks {
		kmers += int64(sk.NumKmers(27))
	}
	return hashtable.SizeForKmers(kmers, 2, 0.65)
}

// TestTableReuseMatchesFreshTable builds a run of partitions on one processor
// (recycling its table) and each on a new processor (a fresh table): the
// subgraphs and every per-partition counter must be identical, on both
// processor kinds. Single-threaded, so probe counts are a function of the
// table alone.
func TestTableReuseMatchesFreshTable(t *testing.T) {
	parts := recycleParts(t)
	cal := costmodel.DefaultCalibration()
	ctx := context.Background()
	procs := map[string]func() Processor{
		"CPU": func() Processor { return &CPU{Threads: 1, Cal: cal} },
		"GPU": func() Processor { return &GPU{Cal: cal} },
	}
	for name, fresh := range procs {
		kept := fresh()
		reused := 0
		for i, sks := range parts {
			var held []*hashtable.Table
			switch p := kept.(type) {
			case *CPU:
				held = p.tables.held
			case *GPU:
				held = p.tables.held
			}
			// Driven one partition at a time, a processor holds at most
			// the table it built the partition before in.
			var before *hashtable.Table
			switch len(held) {
			case 0:
			case 1:
				before = held[0]
			default:
				t.Fatalf("%s partition %d: holding %d tables between partitions", name, i, len(held))
			}
			got, err := kept.Step2(ctx, sks, 27, slotsFor(sks))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh().Step2(ctx, sks, 27, slotsFor(sks))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				gotCounters, wantCounters := got, want
				gotCounters.Graph, wantCounters.Graph = nil, nil
				t.Fatalf("%s partition %d: recycled table gave %+v (%d vertices), fresh table %+v (%d vertices)",
					name, i, gotCounters, got.Graph.NumVertices(), wantCounters, want.Graph.NumVertices())
			}
			if hashtable.Reusable(before, 27, slotsFor(sks)) {
				reused++
			}
		}
		if reused == 0 || reused == len(parts)-1 {
			t.Fatalf("%s: %d of %d partitions met a reusable table; the test wants both cases", name, reused, len(parts))
		}
	}
}

// TestTableCacheHoldsAtMostOne checks the hand-over of a one-slot cache (a
// GPU's): take empties the cache before anything is allocated, a matching
// table comes back Reset, and a mismatched one is dropped.
func TestTableCacheHoldsAtMostOne(t *testing.T) {
	var tc tableCache
	first, err := tc.take(27, 1000)
	if err != nil || len(tc.held) != 0 {
		t.Fatalf("take from an empty cache: table %v, err %v, still holding %v", first, err, tc.held)
	}
	if err := first.InsertEdge(msp.KmerEdge{Left: msp.NoBase, Right: 2}); err != nil {
		t.Fatal(err)
	}
	tc.put(first, 1)
	again, err := tc.take(27, 900) // rounds to the same 1024 slots
	if err != nil || again != first || len(tc.held) != 0 {
		t.Fatalf("matching take: got %p, want the held table %p back and the cache empty (held %v, err %v)", again, first, tc.held, err)
	}
	if again.Len() != 0 || again.Metrics().Snapshot() != (hashtable.Snapshot{}) {
		t.Fatalf("recycled table not clean: %d entries, counters %+v", again.Len(), again.Metrics().Snapshot())
	}
	tc.put(again, 1)
	for what, take := range map[string]func() (*hashtable.Table, error){
		"larger":       func() (*hashtable.Table, error) { return tc.take(27, 5000) },
		"other k":      func() (*hashtable.Table, error) { return tc.take(31, 1000) },
		"invalid size": func() (*hashtable.Table, error) { return tc.take(27, 0) },
	} {
		got, err := take()
		if got == again || len(tc.held) != 0 {
			t.Fatalf("%s: take returned the held table or left it in the cache", what)
		}
		if (err != nil) != (what == "invalid size") {
			t.Fatalf("%s: err %v", what, err)
		}
		tc.put(again, 1)
		if err == nil {
			tc.put(got, 1)
			if len(tc.held) != 1 || tc.held[0] != got {
				t.Fatalf("%s: a one-slot cache holds %v after two puts, want only the last", what, tc.held)
			}
			tc.put(again, 1)
		}
	}
}

// TestTableCacheKeepsOnePerPartitionInFlight checks the two-slot cache a CPU
// keeps while two partitions are in flight on it: both tables come back,
// each to the partition that fits it, a third put lets the oldest go, a take
// that fits none lets the oldest go before it allocates — and a slot that
// lets a table go keeps no reference to it.
func TestTableCacheKeepsOnePerPartitionInFlight(t *testing.T) {
	var tc tableCache
	small, err := tc.take(27, 1000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := tc.take(27, 5000)
	if err != nil {
		t.Fatal(err)
	}
	tc.put(small, 2)
	tc.put(large, 2)
	if len(tc.held) != 2 {
		t.Fatalf("holding %d tables after two partitions in flight returned theirs, want 2", len(tc.held))
	}
	if got, err := tc.take(27, 6000); err != nil || got != large || len(tc.held) != 1 || tc.held[0] != small {
		t.Fatalf("take of the larger size: got %p (err %v), held %v; want %p back and %p kept", got, err, tc.held, large, small)
	}
	if got, err := tc.take(27, 900); err != nil || got != small || len(tc.held) != 0 {
		t.Fatalf("take of the smaller size: got %p (err %v), held %v; want %p back", got, err, tc.held, small)
	}
	third, err := tc.take(27, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*hashtable.Table{small, large, third} {
		tc.put(tb, 2)
	}
	if len(tc.held) != 2 || tc.held[0] != large || tc.held[1] != third {
		t.Fatalf("three puts into two slots kept %v, want [%p %p]", tc.held, large, third)
	}
	if got, err := tc.take(31, 1000); err != nil || got == large || got == third || len(tc.held) != 1 || tc.held[0] != third {
		t.Fatalf("a take that fits neither: got %p (err %v), held %v; want a new table and %p kept", got, err, tc.held, third)
	}
	for i, tb := range tc.held[:cap(tc.held)] {
		if i >= len(tc.held) && tb != nil {
			t.Fatalf("a table let go is still referenced from the cache's spare capacity (slot %d)", i)
		}
	}
	// Driven one partition at a time, the two-slot cache holds one table.
	for i, slots := range []int{1000, 5000, 900, 100, 5000} {
		tb, err := tc.take(27, slots)
		if err != nil {
			t.Fatal(err)
		}
		if len(tc.held) != 0 {
			t.Fatalf("serial take %d left %d tables held beside the one in use", i, len(tc.held))
		}
		tc.put(tb, 2)
	}
}

// dyingContext reports itself cancelled from its n-th Err call on, so a
// kernel polling it is cut off partway through a partition at a known point.
type dyingContext struct {
	context.Context
	left atomic.Int64
}

func (c *dyingContext) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *dyingContext) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestAbandonedKernelKeepsItsTable cancels kernels mid-partition — what the
// pipeline's watchdog does to a hung attempt — and checks the processor is
// left holding no table: the attempt's table never becomes the next one's.
func TestAbandonedKernelKeepsItsTable(t *testing.T) {
	parts := recycleParts(t)
	sks := parts[len(parts)-1]
	cal := costmodel.DefaultCalibration()
	cpu := &CPU{Threads: 3, Cal: cal}
	gpu := &GPU{Cal: cal}
	for _, p := range []Processor{cpu, gpu} {
		if _, err := p.Step2(context.Background(), sks, 27, slotsFor(sks)); err != nil {
			t.Fatal(err)
		}
	}
	if len(cpu.tables.held) == 0 || len(gpu.tables.held) == 0 {
		t.Fatal("a completed kernel did not hand its table on")
	}
	for _, p := range []Processor{cpu, gpu} {
		dying := &dyingContext{Context: context.Background()}
		dying.left.Store(3)
		if _, err := p.Step2(dying, sks, 27, slotsFor(sks)); err == nil {
			t.Fatalf("%s: kernel outlived its context", p.Name())
		}
	}
	if len(cpu.tables.held) != 0 || len(gpu.tables.held) != 0 {
		t.Fatalf("a cancelled kernel handed its table on (CPU %v, GPU %v)", cpu.tables.held, gpu.tables.held)
	}
	// And the processor still works, from a fresh table.
	for _, p := range []Processor{cpu, gpu} {
		if _, err := p.Step2(context.Background(), sks, 27, slotsFor(sks)); err != nil {
			t.Fatal(err)
		}
	}
}
