// Package storetest is the conformance suite for store.PartitionStore
// implementations. Every store (iosim's in-memory simulator, diskstore's
// durable directory) runs the same suite from its own test file, so the
// contract documented on the interface — publish-on-Close atomicity (durable
// and volatile alike), Sync's ErrNotFound, snapshot reads, ErrNotFound
// classification, idempotent and batched Remove, sorted listing that hides
// in-flight writes, streamed snapshot reads that
// give their descriptor back and read any offset of the version they opened
// — is enforced identically on both media. A behavioural
// divergence between the simulated and the real store would silently
// invalidate the virtual-time experiments, so additions to the interface
// contract belong here first.
package storetest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"parahash/internal/store"
)

// Factory returns a fresh, empty store for one subtest. Each subtest gets
// its own store, so implementations backed by shared state (a temp
// directory) should allocate per call.
type Factory func(t *testing.T) store.PartitionStore

// Run exercises the full PartitionStore contract against stores produced by
// the factory.
func Run(t *testing.T, factory Factory) {
	t.Run("WriteReadRoundtrip", func(t *testing.T) { testRoundtrip(t, factory(t)) })
	t.Run("NotFound", func(t *testing.T) { testNotFound(t, factory(t)) })
	t.Run("PublishOnClose", func(t *testing.T) { s := factory(t); testPublishOnClose(t, s, s.Create) })
	t.Run("VolatilePublishOnClose", func(t *testing.T) { s := factory(t); testPublishOnClose(t, s, s.CreateVolatile) })
	t.Run("CreateReplacesOnClose", func(t *testing.T) { testCreateReplaces(t, factory(t)) })
	t.Run("SnapshotRead", func(t *testing.T) { testSnapshotRead(t, factory(t)) })
	t.Run("CloseIdempotent", func(t *testing.T) { testCloseIdempotent(t, factory(t)) })
	t.Run("RemoveIdempotent", func(t *testing.T) { testRemoveIdempotent(t, factory(t)) })
	t.Run("RemoveMany", func(t *testing.T) { testRemoveMany(t, factory(t)) })
	t.Run("ListSorted", func(t *testing.T) { testListSorted(t, factory(t)) })
	t.Run("PublishDuringConcurrentOpen", func(t *testing.T) { s := factory(t); testPublishDuringConcurrentOpen(t, s, s.Create) })
	t.Run("VolatilePublishDuringConcurrentOpen", func(t *testing.T) {
		s := factory(t)
		testPublishDuringConcurrentOpen(t, s, s.CreateVolatile)
	})
	t.Run("Sync", func(t *testing.T) { testSync(t, factory(t)) })
	t.Run("OpenStream", func(t *testing.T) { testOpenStream(t, factory(t)) })
	t.Run("OpenStreamSnapshot", func(t *testing.T) { testOpenStreamSnapshot(t, factory(t)) })
	t.Run("OpenStreamReadAt", func(t *testing.T) { testOpenStreamReadAt(t, factory(t)) })
	t.Run("ListDuringInflightWrites", func(t *testing.T) { testListDuringInflightWrites(t, factory(t)) })
}

// creator is Create or CreateVolatile: both publish atomically on Close.
type creator func(name string) (io.WriteCloser, error)

func put(t *testing.T, s store.PartitionStore, name, content string) {
	t.Helper()
	putWith(t, s.Create, name, content)
}

func putWith(t *testing.T, create creator, name, content string) {
	t.Helper()
	w, err := create(name)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatalf("Write(%q): %v", name, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%q): %v", name, err)
	}
}

func get(t *testing.T, s store.PartitionStore, name string) string {
	t.Helper()
	r, err := s.Open(name)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll(%q): %v", name, err)
	}
	return string(data)
}

func testRoundtrip(t *testing.T, s store.PartitionStore) {
	put(t, s, "superkmers/0004", "encoded partition bytes")
	if got := get(t, s, "superkmers/0004"); got != "encoded partition bytes" {
		t.Errorf("read back %q", got)
	}
	n, err := s.Size("superkmers/0004")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len("encoded partition bytes")); n != want {
		t.Errorf("Size = %d, want %d", n, want)
	}
}

func testNotFound(t *testing.T, s store.PartitionStore) {
	if _, err := s.Open("absent"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Open(absent) = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("absent"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Size(absent) = %v, want ErrNotFound", err)
	}
}

func testPublishOnClose(t *testing.T, s store.PartitionStore, create creator) {
	w, err := create("part")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, "in flight"); err != nil {
		t.Fatal(err)
	}
	// Before Close the name must not resolve: not openable, not sized, not
	// listed. This is the crash-safety property — a writer that dies
	// mid-stream leaves no partial file under the final name.
	if _, err := s.Open("part"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unpublished file openable: err = %v", err)
	}
	if _, err := s.Size("part"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unpublished file sized: err = %v", err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("unpublished file listed: %v", names)
	}
	// Nor can it be made durable: Sync sees published files only.
	if err := s.Sync("part"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Sync of an unpublished file: err = %v, want ErrNotFound", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := get(t, s, "part"); got != "in flight" {
		t.Errorf("published content = %q", got)
	}
}

func testCreateReplaces(t *testing.T, s store.PartitionStore) {
	put(t, s, "f", "version one, the longer content")
	put(t, s, "f", "v2")
	if got := get(t, s, "f"); got != "v2" {
		t.Errorf("after replace, read %q", got)
	}
	if n, _ := s.Size("f"); n != 2 {
		t.Errorf("Size after replace = %d, want 2 (truncated)", n)
	}
}

func testSnapshotRead(t *testing.T, s store.PartitionStore) {
	put(t, s, "f", "v1")
	r, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "f", "v2")
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v1" {
		t.Errorf("reader opened before replacement saw %q, want v1", data)
	}
}

func testCloseIdempotent(t *testing.T, s store.PartitionStore) {
	w, err := s.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "old")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "f", "new")
	// Closing the stale writer again must not republish its bytes over the
	// newer version.
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := get(t, s, "f"); got != "new" {
		t.Errorf("stale double Close clobbered newer version: %q", got)
	}
}

func testRemoveIdempotent(t *testing.T, s store.PartitionStore) {
	put(t, s, "f", "bytes")
	if err := s.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("f"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("removed file still opens: err = %v", err)
	}
	if err := s.Remove("f"); err != nil {
		t.Errorf("removing absent file: %v", err)
	}
}

// testRemoveMany: one call removes every named file it finds, across
// directories, skips absent names, and leaves everything it was not given.
func testRemoveMany(t *testing.T, s store.PartitionStore) {
	for _, name := range []string{"spill/0001/run-0000", "spill/0001/run-0001", "subgraphs/0001.t4", "subgraphs/0001"} {
		put(t, s, name, name)
	}
	if err := s.Remove("spill/0001/run-0000", "spill/0001/absent", "spill/0001/run-0001", "subgraphs/0001.t4"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(); err != nil {
		t.Fatalf("removing nothing: %v", err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "subgraphs/0001" {
		t.Fatalf("after removing three of four files List = %v, want [subgraphs/0001]", names)
	}
}

func testListSorted(t *testing.T, s store.PartitionStore) {
	names := []string{"subgraphs/0002", "superkmers/0000", "subgraphs/0000", "superkmers/0001"}
	for _, n := range names {
		put(t, s, n, n)
	}
	got, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

// testPublishDuringConcurrentOpen hammers snapshot isolation: readers open
// the file while writers race publishes over it. Every ReadAll must return
// one complete published version — never a torn mix of two versions and
// never a short read — because Step 2 re-reads partitions concurrently
// with Step 1 retries rewriting them.
func testPublishDuringConcurrentOpen(t *testing.T, s store.PartitionStore, create creator) {
	// Versions are same-length and self-describing: every byte of version i
	// equals 'a'+i, so a torn snapshot is detectable from any byte pair.
	version := func(i int) string {
		b := make([]byte, 512)
		for j := range b {
			b[j] = byte('a' + i)
		}
		return string(b)
	}
	put(t, s, "f", version(0))

	const versions = 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < versions; i++ {
			putWith(t, create, "f", version(i))
		}
	}()
	for {
		r, err := s.Open("f")
		if err != nil {
			t.Fatalf("Open during concurrent publish: %v", err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("ReadAll during concurrent publish: %v", err)
		}
		if len(data) != 512 {
			t.Fatalf("snapshot length %d, want 512 (torn or partial publish)", len(data))
		}
		for _, b := range data {
			if b != data[0] {
				t.Fatalf("torn snapshot: mixes %q and %q", data[0], b)
			}
		}
		select {
		case <-done:
			if got := get(t, s, "f"); got != version(versions-1) {
				t.Fatalf("final content is not the last published version")
			}
			return
		default:
		}
	}
}

// testOpenStream pins the streaming reader's contract: the published bytes,
// ErrNotFound for an absent or unpublished name, bytes counted as they are
// served, and a Close that gives back whatever the open took — every reader
// opened here is closed, and the process ends with the descriptors it began
// with.
func testOpenStream(t *testing.T, s store.PartitionStore) {
	before := openDescriptors(t)
	if _, err := s.OpenStream("absent"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("OpenStream(absent) = %v, want ErrNotFound", err)
	}
	w, err := s.CreateVolatile("subgraphs/0001")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "0123456789")
	if _, err := s.OpenStream("subgraphs/0001"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unpublished file streams: err = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := s.OpenStream("subgraphs/0001")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil || string(head) != "0123" {
		t.Fatalf("first four bytes = %q, %v", head, err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || string(rest) != "456789" {
		t.Fatalf("rest = %q, %v", rest, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A reader abandoned half-way is closed all the same.
	for i := 0; i < 8; i++ {
		r, err := s.OpenStream("subgraphs/0001")
		if err != nil {
			t.Fatal(err)
		}
		io.ReadFull(r, head)
		if err := r.Close(); err != nil {
			t.Fatalf("Close of a half-read stream: %v", err)
		}
	}
	if after := openDescriptors(t); after != before {
		t.Errorf("%d descriptors open before, %d after every stream was closed", before, after)
	}
}

// openDescriptors counts the process's open file descriptors, or returns -1
// where /proc does not say.
func openDescriptors(t *testing.T) int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// testOpenStreamSnapshot: a stream opened on one version serves that version
// to its end however many publishes — durable or volatile — and even a
// Remove land on the name while it is being read.
func testOpenStreamSnapshot(t *testing.T, s store.PartitionStore) {
	version := func(i int) string { return strings.Repeat(string(rune('a'+i)), 200_000) }
	put(t, s, "f", version(0))
	r, err := s.OpenStream("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []byte
	buf := make([]byte, 30_000)
	for i := 1; ; i++ {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			put(t, s, "f", version(i))
		case 1:
			putWith(t, s.CreateVolatile, "f", version(i))
		case 2:
			if err := s.Remove("f"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if string(got) != version(0) {
		t.Fatalf("the stream served %d bytes that are not the version it was opened on", len(got))
	}
}

// testOpenStreamReadAt: a stream reads the version it was opened on at any
// offset, from several goroutines at once, and reports that version's size,
// however many publishes — durable or volatile — and even a Remove land on
// the name; every byte ReadAt serves is counted, and a stream opened later
// reports the size of the version then published.
func testOpenStreamReadAt(t *testing.T, s store.PartitionStore) {
	version := func(i int) string { return strings.Repeat(string(rune('a'+i)), 100_000+1000*i) }
	put(t, s, "f", version(0))
	r, err := s.OpenStream("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	size := int64(len(version(0)))
	for i := 1; i <= 3; i++ {
		switch i {
		case 1:
			put(t, s, "f", version(i))
		case 2:
			putWith(t, s.CreateVolatile, "f", version(i))
			if later, err := s.OpenStream("f"); err != nil || later.Size() != int64(len(version(i))) {
				t.Fatalf("a stream opened on version %d: %v", i, err)
			} else {
				later.Close()
			}
		case 3:
			if err := s.Remove("f"); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.Size(); got != size {
			t.Fatalf("after change %d the stream reports %d bytes, opened on %d", i, got, size)
		}
		var wg sync.WaitGroup
		bad := make(chan string, 4)
		for g := int64(0); g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 5000)
				if n, err := r.ReadAt(buf, g*20_000+int64(i)); n != len(buf) || err != nil ||
					strings.Trim(string(buf), "a") != "" {
					bad <- fmt.Sprintf("ReadAt(%d) = %d, %v", g*20_000+int64(i), n, err)
				}
			}()
		}
		wg.Wait()
		close(bad)
		for msg := range bad {
			t.Fatalf("after change %d: %s, not the opened version's bytes", i, msg)
		}
		tail := make([]byte, 10)
		if n, err := r.ReadAt(tail, size-4); n != 4 || err != io.EOF || string(tail[:n]) != "aaaa" {
			t.Fatalf("ReadAt over the end = %d %q, %v; want 4 bytes and io.EOF", n, tail[:n], err)
		}
	}
}

// testSync pins the covering-sync contract: any published file — volatile or
// not, in any directory — can be named, content is untouched, and an absent
// name anywhere in the list is ErrNotFound.
func testSync(t *testing.T, s store.PartitionStore) {
	putWith(t, s.CreateVolatile, "spill/0001/run-0000", "run zero")
	putWith(t, s.CreateVolatile, "spill/0001/run-0001", "run one")
	putWith(t, s.CreateVolatile, "spill/0002/run-0000", "other partition")
	put(t, s, "subgraphs/0001", "already durable")
	if err := s.Sync("spill/0001/run-0000", "spill/0001/run-0001", "spill/0002/run-0000", "subgraphs/0001"); err != nil {
		t.Fatalf("Sync of published files: %v", err)
	}
	if err := s.Sync("spill/0001/run-0000"); err != nil {
		t.Fatalf("second Sync of the same file: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync of nothing: %v", err)
	}
	if got := get(t, s, "spill/0001/run-0001"); got != "run one" {
		t.Errorf("content after Sync = %q", got)
	}
	if err := s.Sync("spill/0001/run-0000", "spill/0001/run-0009"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Sync naming an absent file: err = %v, want ErrNotFound", err)
	}
}

// testListDuringInflightWrites holds several writers open mid-stream and
// requires List (and Size) to keep hiding them while published siblings
// stay visible; each writer appears exactly when its Close publishes.
// This is the .tmp discipline chaos runs depend on: a crash leaves only
// invisible in-flight files, never a half-published name.
func testListDuringInflightWrites(t *testing.T, s store.PartitionStore) {
	put(t, s, "published/a", "done")
	w1, err := s.Create("inflight/1")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.Create("inflight/2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w1, "partial bytes one"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w2, "partial"); err != nil {
		t.Fatal(err)
	}

	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "published/a" {
		t.Fatalf("List with in-flight writes = %v, want [published/a]", names)
	}
	if _, err := s.Size("inflight/1"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("in-flight file sized: err = %v", err)
	}

	// More bytes arriving on an in-flight writer must not change anything.
	if _, err := io.WriteString(w1, " and more"); err != nil {
		t.Fatal(err)
	}
	if names, _ = s.List(); len(names) != 1 {
		t.Fatalf("List after more in-flight bytes = %v, want [published/a]", names)
	}

	// Publishing one writer reveals exactly that file; the other stays
	// hidden until its own Close.
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	names, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "inflight/1" || names[1] != "published/a" {
		t.Fatalf("List after first Close = %v, want [inflight/1 published/a]", names)
	}
	if got := get(t, s, "inflight/1"); got != "partial bytes one and more" {
		t.Errorf("published in-flight content = %q", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ = s.List(); len(names) != 3 {
		t.Fatalf("List after second Close = %v, want 3 files", names)
	}
}
