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
			var before *hashtable.Table
			switch p := kept.(type) {
			case *CPU:
				before = p.tables.held
			case *GPU:
				before = p.tables.held
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

// TestTableCacheHoldsAtMostOne checks the hand-over itself: take empties the
// cache before anything is allocated, a matching table comes back Reset, and
// a mismatched one is dropped.
func TestTableCacheHoldsAtMostOne(t *testing.T) {
	var tc tableCache
	first, err := tc.take(27, 1000)
	if err != nil || tc.held != nil {
		t.Fatalf("take from an empty cache: table %v, err %v, still holding %v", first, err, tc.held)
	}
	if err := first.InsertEdge(msp.KmerEdge{Left: msp.NoBase, Right: 2}); err != nil {
		t.Fatal(err)
	}
	tc.put(first)
	again, err := tc.take(27, 900) // rounds to the same 1024 slots
	if err != nil || again != first || tc.held != nil {
		t.Fatalf("matching take: got %p, want the held table %p back and the cache empty (held %v, err %v)", again, first, tc.held, err)
	}
	if again.Len() != 0 || again.Metrics().Snapshot() != (hashtable.Snapshot{}) {
		t.Fatalf("recycled table not clean: %d entries, counters %+v", again.Len(), again.Metrics().Snapshot())
	}
	tc.put(again)
	for what, take := range map[string]func() (*hashtable.Table, error){
		"larger":       func() (*hashtable.Table, error) { return tc.take(27, 5000) },
		"other k":      func() (*hashtable.Table, error) { return tc.take(31, 1000) },
		"invalid size": func() (*hashtable.Table, error) { return tc.take(27, 0) },
	} {
		got, err := take()
		if got == again || tc.held != nil {
			t.Fatalf("%s: take returned the held table or left it in the cache", what)
		}
		if (err != nil) != (what == "invalid size") {
			t.Fatalf("%s: err %v", what, err)
		}
		tc.put(again)
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
	if cpu.tables.held == nil || gpu.tables.held == nil {
		t.Fatal("a completed kernel did not hand its table on")
	}
	for _, p := range []Processor{cpu, gpu} {
		dying := &dyingContext{Context: context.Background()}
		dying.left.Store(3)
		if _, err := p.Step2(dying, sks, 27, slotsFor(sks)); err == nil {
			t.Fatalf("%s: kernel outlived its context", p.Name())
		}
	}
	if cpu.tables.held != nil || gpu.tables.held != nil {
		t.Fatalf("a cancelled kernel handed its table on (CPU %v, GPU %v)", cpu.tables.held, gpu.tables.held)
	}
	// And the processor still works, from a fresh table.
	for _, p := range []Processor{cpu, gpu} {
		if _, err := p.Step2(context.Background(), sks, 27, slotsFor(sks)); err != nil {
			t.Fatal(err)
		}
	}
}
