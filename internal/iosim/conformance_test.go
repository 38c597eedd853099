package iosim

import (
	"errors"
	"io"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// TestConformance runs the shared PartitionStore contract suite against the
// in-memory store, so iosim and diskstore are held to identical semantics.
func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.PartitionStore {
		return NewStore(costmodel.MediumMemCached)
	})
}

// TestReadFaultChargedPerOpen pins the per-Open fault-budget semantics
// documented on store.PartitionStore: a scripted read fault is consumed by
// Open, never by Read calls on the returned snapshot reader. A budget of one
// therefore fails exactly one Open, no matter how the survivor is consumed.
func TestReadFaultChargedPerOpen(t *testing.T) {
	s := faulty()
	writeFile(t, s, "f", "0123456789")
	boom := errors.New("flaky")
	s.FailReadsNTimes("f", 1, boom)

	if _, err := s.Open("f"); !errors.Is(err, boom) {
		t.Fatalf("first Open = %v, want boom", err)
	}
	r, err := s.Open("f")
	if err != nil {
		t.Fatalf("second Open after budget exhausted: %v", err)
	}
	// Drain the reader one byte at a time: if the budget were charged per
	// Read, a multi-shot fault would fire mid-stream. Re-arm a fresh budget
	// while draining to prove reads on an open snapshot are untouchable.
	s.FailReadsNTimes("f", 3, boom)
	buf := make([]byte, 1)
	var got []byte
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read on open snapshot hit fault: %v", err)
		}
	}
	if string(got) != "0123456789" {
		t.Fatalf("drained %q", got)
	}
}
