package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// TestWrapStoreConformance: a fault-free wrapper is indistinguishable from
// the store it wraps, the volatile publish and Sync included.
func TestWrapStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.PartitionStore { return wrappedStore() })
}

// TestWrapStoreVolatileFaults: a volatile writer carries the same write
// faults and capacity budget as a durable one, and a scripted sync fault
// fires on the Sync that names its file — once, leaving the file published.
func TestWrapStoreVolatileFaults(t *testing.T) {
	s := wrappedStore()
	boom := errors.New("boom")
	s.FailWritesNTimes("run", 1, boom)
	w, err := s.CreateVolatile("run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("volatile write under a write fault: err = %v, want boom", err)
	}
	s.SetCapacityBytes(4)
	if _, err := w.Write([]byte("12345")); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("volatile write past the budget: err = %v, want store.ErrDiskFull", err)
	}
	if _, err := w.Write([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	full := fmt.Errorf("%w: flush", store.ErrDiskFull)
	s.FailSyncsNTimes("run", 1, full)
	if err := s.Sync("run"); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("Sync under a sync fault: err = %v, want store.ErrDiskFull", err)
	}
	if err := s.Sync("run"); err != nil {
		t.Fatalf("Sync after the fault drained: %v", err)
	}
	if n, err := s.Size("run"); err != nil || n != 4 {
		t.Fatalf("file after a failed Sync: size %d, err %v", n, err)
	}
}

// TestWrapStoreFaultsReachOpenStream: the read script Open runs applies to a
// streamed open too, charged once per open however many Reads follow — a
// scripted failure fails the open, a corruption flips the bit Open flips,
// read in order or at offsets.
func TestWrapStoreFaultsReachOpenStream(t *testing.T) {
	s := wrappedStore()
	content := strings.Repeat("abcdefgh", 4096)
	putFile(t, s, "subgraphs/0002", content)

	s.FailReadsNTimes("subgraphs/0002", 1, ErrInjected)
	if _, err := s.OpenStream("subgraphs/0002"); !errors.Is(err, ErrInjected) {
		t.Fatalf("OpenStream under a read fault: err = %v, want ErrInjected", err)
	}
	s.CorruptReadsNTimes("subgraphs/0002", 1)
	r, err := s.Open("subgraphs/0002")
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := io.ReadAll(r)
	s.CorruptReadsNTimes("subgraphs/0002", 1)
	rc, err := s.OpenStream("subgraphs/0002")
	if err != nil {
		t.Fatal(err)
	}
	// Short reads, so the flipped byte falls inside a later one.
	streamed, err := io.ReadAll(iotest.OneByteReader(rc))
	if err != nil || rc.Close() != nil {
		t.Fatal(err)
	}
	if string(streamed) == content || !bytes.Equal(streamed, whole) {
		t.Fatal("a corrupted stream does not serve the bytes a corrupted Open serves")
	}
	// Read at offsets, the flip lands at the same byte: inside a read that
	// covers it, and in none that does not.
	s.CorruptReadsNTimes("subgraphs/0002", 1)
	if rc, err = s.OpenStream("subgraphs/0002"); err != nil {
		t.Fatal(err)
	}
	mid := int64(len(content) / 2)
	for _, off := range []int64{0, mid - 3, mid, mid + 1, mid - 100} {
		p := make([]byte, 100)
		if n, err := rc.ReadAt(p, off); n != len(p) || err != nil || !bytes.Equal(p, whole[off:off+100]) {
			t.Fatalf("ReadAt(%d) = %d, %v: not the corrupted Open's bytes", off, n, err)
		}
	}
	if rc.Size() != int64(len(content)) || rc.Close() != nil {
		t.Fatalf("corrupted stream: size %d, want %d", rc.Size(), len(content))
	}
	rc, err = s.OpenStream("subgraphs/0002")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if clean, _ := io.ReadAll(rc); string(clean) != content {
		t.Fatal("the stream after the script drained is not the stored file")
	}
}
