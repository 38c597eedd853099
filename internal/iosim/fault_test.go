package iosim

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/faultinject"
	"parahash/internal/store"
)

// The store carries no faults of its own: tests script them with the
// faultinject wrapper, which works over any store. These hold the wrapper,
// over this store, to the fault semantics the build's retry logic assumes.

// faulty is a fault layer over a fresh in-memory store.
func faulty() *faultinject.Store {
	return faultinject.WrapStore(NewStore(costmodel.MediumMemCached))
}

func writeFile(t *testing.T, s store.PartitionStore, name, content string) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, s store.PartitionStore, name string) []byte {
	t.Helper()
	r, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOpenMissingIsErrNotFound(t *testing.T) {
	s := NewStore(costmodel.MediumMemCached)
	if _, err := s.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size err = %v, want ErrNotFound", err)
	}
}

func TestFailReadsNTimesIsTransient(t *testing.T) {
	s := faulty()
	writeFile(t, s, "f", "payload")
	boom := errors.New("flaky")
	s.FailReadsNTimes("f", 2, boom)
	for i := 0; i < 2; i++ {
		if _, err := s.Open("f"); !errors.Is(err, boom) {
			t.Fatalf("open %d: err = %v, want boom", i, err)
		}
	}
	if got := readFile(t, s, "f"); string(got) != "payload" {
		t.Fatalf("recovered read = %q", got)
	}
	// The fault is consumed: later reads keep succeeding.
	readFile(t, s, "f")
}

func TestFailReadsOnIsPersistent(t *testing.T) {
	s := faulty()
	writeFile(t, s, "f", "payload")
	boom := errors.New("dead")
	s.FailReadsOn("f", boom)
	for i := 0; i < 5; i++ {
		if _, err := s.Open("f"); !errors.Is(err, boom) {
			t.Fatalf("open %d: err = %v, want boom", i, err)
		}
	}
	// A nil error clears the fault.
	s.FailReadsOn("f", nil)
	readFile(t, s, "f")
}

func TestFailWritesNTimesIsTransient(t *testing.T) {
	s := faulty()
	boom := errors.New("disk hiccup")
	s.FailWritesNTimes("f", 1, boom)
	w, _ := s.Create("f")
	if _, err := io.WriteString(w, "x"); !errors.Is(err, boom) {
		t.Fatalf("first write err = %v, want boom", err)
	}
	if _, err := io.WriteString(w, "hello"); err != nil {
		t.Fatalf("second write failed after transient fault: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, s, "f"); string(got) != "hello" {
		t.Fatalf("file = %q, want %q", got, "hello")
	}
}

func TestCorruptReadsNTimesServesFlippedCopy(t *testing.T) {
	inner := NewStore(costmodel.MediumMemCached)
	s := faultinject.WrapStore(inner)
	want := "some partition bytes"
	writeFile(t, s, "f", want)
	s.CorruptReadsNTimes("f", 1)

	got := readFile(t, s, "f")
	if bytes.Equal(got, []byte(want)) {
		t.Fatal("corrupt read served intact bytes")
	}
	diff := 0
	for i := range got {
		if got[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1 flipped", diff)
	}
	// The stored file is untouched: the store itself and a re-read through
	// the fault layer serve it intact.
	if got := readFile(t, inner, "f"); string(got) != want {
		t.Fatalf("stored bytes = %q, want intact %q", got, want)
	}
	if got := readFile(t, s, "f"); string(got) != want {
		t.Fatalf("re-read = %q, want intact %q", got, want)
	}
}

func TestCorruptReadsPersistent(t *testing.T) {
	s := faulty()
	want := "bytes"
	writeFile(t, s, "f", want)
	s.CorruptReadsNTimes("f", -1)
	for i := 0; i < 3; i++ {
		if got := readFile(t, s, "f"); bytes.Equal(got, []byte(want)) {
			t.Fatalf("read %d served intact bytes under persistent corruption", i)
		}
	}
	s.CorruptReadsNTimes("f", 0) // clear
	if got := readFile(t, s, "f"); string(got) != want {
		t.Fatalf("cleared corruption still active: %q", got)
	}
}
