package faultinject

import (
	"context"
	"errors"
	"io"
	"testing"

	"parahash/internal/device"
	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/msp"
)

func testReads() []fastq.Read {
	bases := make([]dna.Base, 60)
	for i := range bases {
		bases[i] = dna.Base(i % 4)
	}
	return []fastq.Read{{Bases: bases}}
}

func testSuperkmers() []msp.Superkmer {
	bases := make([]dna.Base, 30)
	for i := range bases {
		bases[i] = dna.Base((i + 1) % 4)
	}
	return []msp.Superkmer{{Bases: bases}}
}

func cpu() device.Processor {
	return &device.CPU{Threads: 1}
}

func TestApplyStoreTransientAndPersistent(t *testing.T) {
	s := wrappedStore()
	w, _ := s.Create("a")
	if _, err := io.WriteString(w, "content"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	plan := Plan{
		ReadFaults: []StoreFault{
			{File: "a", Times: 1}, // one transient failure, default error
			{File: "b", Times: -1, Corrupt: false, Err: io.ErrUnexpectedEOF}, // persistent
		},
	}
	plan.ApplyStore(s)

	if _, err := s.Open("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first read of a: %v, want ErrInjected", err)
	}
	if _, err := s.Open("a"); err != nil {
		t.Fatalf("second read of a should recover: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Open("b"); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("read %d of b: %v, want persistent custom error", i, err)
		}
	}
}

func TestApplyStoreCorruption(t *testing.T) {
	s := wrappedStore()
	w, _ := s.Create("p")
	if _, err := io.WriteString(w, "partition bytes"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	Plan{ReadFaults: []StoreFault{{File: "p", Times: 1, Corrupt: true}}}.ApplyStore(s)
	r, err := s.Open("p")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	if string(got) == "partition bytes" {
		t.Fatal("corrupt read served intact bytes")
	}
	r, err = s.Open("p")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(r); string(got) != "partition bytes" {
		t.Fatalf("re-read = %q, want intact bytes", got)
	}
}

func TestFlakyDieAfter(t *testing.T) {
	fl := NewFlaky(cpu(), ProcessorFault{DieAfter: 2})
	sks := testSuperkmers()
	for i := 0; i < 2; i++ {
		if _, err := fl.Step2(context.Background(), sks, 27, 1024); err != nil {
			t.Fatalf("call %d before drop-out: %v", i, err)
		}
	}
	if _, err := fl.Step2(context.Background(), sks, 27, 1024); !errors.Is(err, ErrProcessorDead) {
		t.Fatalf("call after drop-out: %v, want ErrProcessorDead", err)
	}
	// Step1 is dead too — the whole device dropped out, not one kernel.
	if _, err := fl.Step1(context.Background(), testReads(), 27, 11); !errors.Is(err, ErrProcessorDead) {
		t.Fatalf("step1 after drop-out: %v, want ErrProcessorDead", err)
	}
}

func TestFlakyZeroValueNeverDies(t *testing.T) {
	fl := NewFlaky(cpu(), ProcessorFault{})
	sks := testSuperkmers()
	for i := 0; i < 10; i++ {
		if _, err := fl.Step2(context.Background(), sks, 27, 1024); err != nil {
			t.Fatalf("zero-value fault killed call %d: %v", i, err)
		}
	}
}

func TestFlakyDeadOnArrival(t *testing.T) {
	fl := NewFlaky(cpu(), ProcessorFault{DeadOnArrival: true})
	if _, err := fl.Step1(context.Background(), testReads(), 27, 11); !errors.Is(err, ErrProcessorDead) {
		t.Fatalf("DOA step1: %v", err)
	}
	if _, err := fl.Step2(context.Background(), testSuperkmers(), 27, 1024); !errors.Is(err, ErrProcessorDead) {
		t.Fatalf("DOA step2: %v", err)
	}
}

func TestFlakyFailStep2Calls(t *testing.T) {
	boom := errors.New("sporadic kernel fault")
	fl := NewFlaky(cpu(), ProcessorFault{FailStep2Calls: []int{1}, Err: boom})
	sks := testSuperkmers()
	if _, err := fl.Step2(context.Background(), sks, 27, 1024); err != nil {
		t.Fatalf("call 0: %v", err)
	}
	if _, err := fl.Step2(context.Background(), sks, 27, 1024); !errors.Is(err, boom) {
		t.Fatalf("call 1: %v, want scripted fault", err)
	}
	if _, err := fl.Step2(context.Background(), sks, 27, 1024); err != nil {
		t.Fatalf("call 2 (fault is one-shot): %v", err)
	}
	if fl.Name() != "CPU" || fl.Kind() != device.KindCPU {
		t.Fatal("wrapper must delegate identity to the inner device")
	}
}

func TestWrapProcessorsIsFreshPerCall(t *testing.T) {
	plan := Plan{ProcessorFaults: []ProcessorFault{{Proc: 0, DieAfter: 1}}}
	procs := []device.Processor{cpu()}

	sks := testSuperkmers()
	for round := 0; round < 2; round++ {
		wrapped := plan.WrapProcessors(procs)
		if _, err := wrapped[0].Step2(context.Background(), sks, 27, 1024); err != nil {
			t.Fatalf("round %d call 0: %v", round, err)
		}
		if _, err := wrapped[0].Step2(context.Background(), sks, 27, 1024); !errors.Is(err, ErrProcessorDead) {
			t.Fatalf("round %d call 1: %v, want ErrProcessorDead", round, err)
		}
	}
	// The original slice is untouched.
	if _, ok := procs[0].(*Flaky); ok {
		t.Fatal("WrapProcessors mutated the input slice")
	}
}

func TestWrapProcessorsOutOfRangeIgnored(t *testing.T) {
	plan := Plan{ProcessorFaults: []ProcessorFault{{Proc: 5, DeadOnArrival: true}, {Proc: -1}}}
	wrapped := plan.WrapProcessors([]device.Processor{cpu()})
	if _, err := wrapped[0].Step2(context.Background(), testSuperkmers(), 27, 1024); err != nil {
		t.Fatalf("out-of-range fault affected processor 0: %v", err)
	}
}
