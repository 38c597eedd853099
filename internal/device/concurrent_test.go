package device

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// step2Result is what a Step 2 call must give whoever runs it and whatever
// runs beside it: the serialised subgraph and the counters that do not
// depend on how the table's inserts interleaved.
type step2Result struct {
	graph                          []byte
	kmers, distinct, tableBytes    int64
	lockedInserts, lockFreeUpdates int64
	vertices                       int
}

func resultOf(t *testing.T, out Step2Output) step2Result {
	t.Helper()
	var buf bytes.Buffer
	if err := out.Graph.Write(&buf); err != nil {
		t.Error(err)
	}
	return step2Result{
		graph: buf.Bytes(), kmers: out.Kmers, distinct: out.Distinct, tableBytes: out.TableBytes,
		lockedInserts: out.Hash.Inserts, lockFreeUpdates: out.Hash.Updates,
		vertices: out.Graph.NumVertices(),
	}
}

func sameResult(a, b step2Result) bool {
	return bytes.Equal(a.graph, b.graph) && a.kmers == b.kmers && a.distinct == b.distinct &&
		a.tableBytes == b.tableBytes && a.lockedInserts == b.lockedInserts &&
		a.lockFreeUpdates == b.lockFreeUpdates
}

// serialResults builds each partition alone on a fresh CPU.
func serialResults(t *testing.T, threads int) []step2Result {
	t.Helper()
	var want []step2Result
	for _, sks := range recycleParts(t) {
		out, err := (&CPU{Threads: threads}).Step2(context.Background(), sks, 27, slotsFor(sks))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resultOf(t, out))
	}
	return want
}

// TestConcurrentStep2MatchesSerial drives one CPU from four goroutines at
// once, each walking the partitions from a different start, so kernels share
// the thread tokens and hand recycled tables to one another: every subgraph
// must be byte-identical to the partition built alone, and afterwards every
// token is back and the CPU keeps no more tables than it was allowed.
func TestConcurrentStep2MatchesSerial(t *testing.T) {
	const threads = 3
	parts := recycleParts(t)
	want := serialResults(t, threads)
	cpu := &CPU{Threads: threads}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for j := range parts {
					i := (g + j) % len(parts)
					out, err := cpu.Step2(context.Background(), parts[i], 27, slotsFor(parts[i]))
					if err != nil {
						t.Error(err)
						return
					}
					if got := resultOf(t, out); !sameResult(got, want[i]) {
						t.Errorf("goroutine %d partition %d: %d vertices, %d distinct beside other kernels; %d, %d alone",
							g, i, got.vertices, got.distinct, want[i].vertices, want[i].distinct)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(cpu.tokens.free); n != 0 {
		t.Fatalf("%d thread tokens still held after every kernel returned", n)
	}
	if c := cap(cpu.tokens.free); c != threads {
		t.Fatalf("the token pool holds %d tokens, want Threads = %d", c, threads)
	}
	if n := len(cpu.tables.held); n > cpuTablesKept {
		t.Fatalf("the CPU keeps %d tables, want at most %d", n, cpuTablesKept)
	}
}

// polledContext counts its Err calls: a Step 2 kernel polls it at the start
// of every chunk it hashes.
type polledContext struct {
	context.Context
	polls atomic.Int64
}

func (c *polledContext) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestStep2HashesOnlyUnderAThreadToken holds every one of a CPU's tokens:
// no kernel may hash a chunk, or finish, since every chunk and the extract
// and sort each need one — so at most Threads goroutines work at once,
// however many kernels run. Given the tokens back, both kernels finish with
// the graphs they build alone; a kernel waiting for a token stops when its
// context does.
func TestStep2HashesOnlyUnderAThreadToken(t *testing.T) {
	const threads = 2
	parts := recycleParts(t)
	want := serialResults(t, threads)
	cpu := &CPU{Threads: threads}
	ctx := &polledContext{Context: context.Background()}
	for i := 0; i < threads; i++ {
		if err := cpu.tokens.acquire(ctx, threads); err != nil {
			t.Fatal(err)
		}
	}
	if got := cpu.tokens.tryAcquire(threads, 1); got != 0 {
		t.Fatalf("took a token beyond the %d in the pool", threads)
	}

	done := make(chan int, 2)
	results := make([]step2Result, len(parts))
	for _, i := range []int{0, len(parts) - 1} {
		go func(i int) {
			out, err := cpu.Step2(ctx, parts[i], 27, slotsFor(parts[i]))
			if err != nil {
				t.Error(err)
			} else {
				results[i] = resultOf(t, out)
			}
			done <- i
		}(i)
	}
	select {
	case i := <-done:
		t.Fatalf("partition %d was built while every thread token was held", i)
	case <-time.After(50 * time.Millisecond):
	}
	if n := ctx.polls.Load(); n != 0 {
		t.Fatalf("the kernels hashed %d chunks while every thread token was held", n)
	}
	cpu.tokens.release(threads)
	for range 2 {
		<-done
	}
	for _, i := range []int{0, len(parts) - 1} {
		if !sameResult(results[i], want[i]) {
			t.Fatalf("partition %d: %d vertices once the tokens came back, %d alone", i, results[i].vertices, want[i].vertices)
		}
	}

	for i := 0; i < threads; i++ {
		if err := cpu.tokens.acquire(ctx, threads); err != nil {
			t.Fatal(err)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := cpu.Step2(cctx, parts[0], 27, slotsFor(parts[0]))
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("a kernel waiting for a token returned %v after its context was canceled", err)
	}
	if n := len(cpu.tokens.free); n != threads {
		t.Fatalf("%d tokens held after the canceled kernel returned, want the test's %d", n, threads)
	}
	cpu.tokens.release(threads)
}
