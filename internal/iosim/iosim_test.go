package iosim

import (
	"io"
	"sync"
	"testing"

	"parahash/internal/costmodel"
)

func TestCreateWriteOpenRead(t *testing.T) {
	s := NewStore(costmodel.MediumMemCached)
	w, _ := s.Create("a/b")
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("a/b")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Fatalf("read %q", data)
	}
	if got, _ := s.Size("a/b"); got != 11 {
		t.Errorf("size = %d", got)
	}
	if s.BytesWritten() != 11 || s.BytesRead() != 11 {
		t.Errorf("accounting: w=%d r=%d", s.BytesWritten(), s.BytesRead())
	}
}

func TestOpenMissing(t *testing.T) {
	s := NewStore(costmodel.MediumDisk)
	if _, err := s.Open("nope"); err == nil {
		t.Error("missing file opened")
	}
	if _, err := s.Size("nope"); err == nil {
		t.Error("missing file sized")
	}
}

func TestCreateTruncates(t *testing.T) {
	s := NewStore(costmodel.MediumMemCached)
	w, _ := s.Create("f")
	w.Write([]byte("old content"))
	w.Close()
	w2, _ := s.Create("f")
	w2.Write([]byte("new"))
	w2.Close()
	if got, _ := s.Size("f"); got != 3 {
		t.Errorf("size after truncate = %d", got)
	}
}

func TestListAndRemoveAndTotal(t *testing.T) {
	s := NewStore(costmodel.MediumMemCached)
	for _, name := range []string{"z", "a", "m"} {
		w, _ := s.Create(name)
		w.Write([]byte(name))
		w.Close()
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[2] != "z" {
		t.Errorf("List = %v", names)
	}
	if s.TotalBytes() != 3 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	if err := s.Remove("m"); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.List(); len(names) != 2 {
		t.Error("Remove failed")
	}
	if err := s.Remove("m"); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := NewStore(costmodel.MediumMemCached)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, _ := s.Create(string(rune('a' + i)))
			for j := 0; j < 100; j++ {
				w.Write([]byte{byte(j)})
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	if s.BytesWritten() != 800 {
		t.Errorf("BytesWritten = %d, want 800", s.BytesWritten())
	}
}

func TestCostCharging(t *testing.T) {
	cal := costmodel.DefaultCalibration()
	disk := NewStore(costmodel.MediumDisk)
	mem := NewStore(costmodel.MediumMemCached)
	if disk.ReadSeconds(cal, 1<<30) <= mem.ReadSeconds(cal, 1<<30) {
		t.Error("disk read should cost more than mem-cached")
	}
	if disk.WriteSeconds(cal, 1<<30) <= mem.WriteSeconds(cal, 1<<30) {
		t.Error("disk write should cost more than mem-cached")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	// A reader opened before a later version publishes sees the content at
	// open time.
	s := NewStore(costmodel.MediumMemCached)
	w, _ := s.Create("f")
	w.Write([]byte("v1"))
	w.Close()
	r, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := s.Create("f")
	w2.Write([]byte("v2"))
	w2.Close()
	data, _ := io.ReadAll(r)
	if string(data) != "v1" {
		t.Errorf("reader saw %q, want v1", data)
	}
}

func TestPublishOnCloseOnly(t *testing.T) {
	// In-flight writes are invisible until Close — the in-memory analogue
	// of the durable store's atomic publication.
	s := NewStore(costmodel.MediumMemCached)
	w, _ := s.Create("f")
	w.Write([]byte("partial"))
	if _, err := s.Open("f"); err == nil {
		t.Error("unpublished file is readable")
	}
	if names, _ := s.List(); len(names) != 0 {
		t.Errorf("unpublished file listed: %v", names)
	}
	w.Close()
	if got := string(readFile(t, s, "f")); got != "partial" {
		t.Errorf("published content = %q", got)
	}
	// Close is idempotent: a second Close must not republish or clobber a
	// newer version.
	w2, _ := s.Create("f")
	w2.Write([]byte("newer"))
	w2.Close()
	w.Close()
	if got := string(readFile(t, s, "f")); got != "newer" {
		t.Errorf("double Close clobbered newer version: %q", got)
	}
}

func TestFaultInjection(t *testing.T) {
	s := faulty()
	boom := io.ErrClosedPipe
	s.FailWritesOn("bad", boom)
	w, _ := s.Create("bad")
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("injected write fault did not fire")
	}
	s.FailWritesOn("bad", nil)
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatalf("cleared fault still firing: %v", err)
	}

	w2, _ := s.Create("r")
	w2.Write([]byte("data"))
	w2.Close()
	s.FailReadsOn("r", boom)
	if _, err := s.Open("r"); err == nil {
		t.Fatal("injected read fault did not fire")
	}
	s.FailReadsOn("r", nil)
	if _, err := s.Open("r"); err != nil {
		t.Fatalf("cleared read fault still firing: %v", err)
	}
}
