package device

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"parahash/internal/msp"
)

// Tests and benchmarks for the hot-path overhaul on the device layer:
// scan-time partition stamping, per-device scratch reuse, the shared GPU
// transfer formula, and the kmer-weighted Step 2 chunking.

func TestStep1PartitionStamps(t *testing.T) {
	reads := testReads(t)
	const np = 64
	for _, proc := range []Processor{
		&CPU{Threads: 4, Partitions: np},
		&GPU{Partitions: np},
	} {
		out, err := proc.Step1(context.Background(), reads, 27, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i, sk := range out.Superkmers {
			if !sk.PartValid {
				t.Fatalf("%s: superkmer %d missing partition stamp", proc.Name(), i)
			}
			if want := msp.Partition(sk.Minimizer, np); int(sk.Part) != want {
				t.Fatalf("%s: superkmer %d stamped %d, want %d", proc.Name(), i, sk.Part, want)
			}
		}
	}
}

// TestStep1KernelsOnOneDeviceDoNotShareScratch runs Step 1 kernels on one
// device value at once — what a watchdog-abandoned attempt winding down beside
// its retry amounts to — and holds each to a fresh device's output (and, under
// -race, to not touching the other's scanners).
func TestStep1KernelsOnOneDeviceDoNotShareScratch(t *testing.T) {
	reads := testReads(t)
	for _, mk := range []func() Processor{
		func() Processor { return &CPU{Threads: 3, Partitions: 16} },
		func() Processor { return &GPU{Partitions: 16} },
	} {
		want, err := mk().Step1(context.Background(), reads, 27, 11)
		if err != nil {
			t.Fatal(err)
		}
		shared := mk()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := shared.Step1(context.Background(), reads, 27, 11)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Superkmers, want.Superkmers) {
					t.Errorf("%s: a kernel sharing its device produced different superkmers", shared.Name())
				}
			}()
		}
		wg.Wait()
	}
}

func TestCPUStep1ScratchReuseDeterministic(t *testing.T) {
	// One CPU value reused across chunks — the pipeline's usage — must keep
	// producing the same output as a fresh device.
	reads := testReads(t)
	reused := &CPU{Threads: 4, Partitions: 16}
	for round := 0; round < 3; round++ {
		got, err := reused.Step1(context.Background(), reads, 27, 11)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&CPU{Threads: 4, Partitions: 16}).Step1(context.Background(), reads, 27, 11)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Superkmers) != len(want.Superkmers) || got.Bases != want.Bases {
			t.Fatalf("round %d: reused device output diverged", round)
		}
		for i := range got.Superkmers {
			g, w := got.Superkmers[i], want.Superkmers[i]
			if g.Minimizer != w.Minimizer || g.Part != w.Part || len(g.Bases) != len(w.Bases) {
				t.Fatalf("round %d: superkmer %d differs between reused and fresh device", round, i)
			}
		}
	}
}

func TestStep1TransferBytesShared(t *testing.T) {
	if got := Step1TransferBytes(400, 10); got != 400/4+10*12 {
		t.Fatalf("Step1TransferBytes(400, 10) = %d", got)
	}
}

func TestStep2Chunks(t *testing.T) {
	reads := testReads(t)
	sks := gatherSuperkmers(t, reads, 27, 11)
	var kmers int64
	for _, sk := range sks {
		kmers += int64(sk.NumKmers(27))
	}
	ends, counted := step2Chunks(sks, 27)
	if counted != kmers {
		t.Fatalf("step2Chunks counted %d k-mers, the records hold %d", counted, kmers)
	}
	if len(ends) < 2 || ends[len(ends)-1] != len(sks) {
		t.Fatalf("chunk ends %v do not cover the input in several chunks", ends)
	}
	prev := 0
	for ci, end := range ends {
		if end <= prev {
			t.Fatalf("chunk %d empty or out of order (%v)", ci, ends)
		}
		var w int64
		for _, sk := range sks[prev:end] {
			w += int64(sk.NumKmers(27))
		}
		// Every chunk except the last must have reached the grain.
		if ci < len(ends)-1 && w < step2ChunkKmers {
			t.Fatalf("chunk %d weight %d below grain %d", ci, w, step2ChunkKmers)
		}
		prev = end
	}
	if ends, counted := step2Chunks(nil, 27); len(ends) != 0 || counted != 0 {
		t.Fatalf("empty input produced chunks %v, %d k-mers", ends, counted)
	}
}

func BenchmarkStep1Scan(b *testing.B) {
	reads := testReads(b)
	var bases int64
	for _, rd := range reads {
		bases += int64(len(rd.Bases))
	}
	cpu := &CPU{Threads: 1, Partitions: 64}
	ctx := context.Background()
	if _, err := cpu.Step1(ctx, reads, 27, 11); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Step1(ctx, reads, 27, 11); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*bases), "ns/base")
}

func BenchmarkCPUStep2(b *testing.B) {
	reads := testReads(b)
	sks := gatherSuperkmers(b, reads, 27, 11)
	cpu := &CPU{Threads: 8}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Step2(ctx, sks, 27, 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}
