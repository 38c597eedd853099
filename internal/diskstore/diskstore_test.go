package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
	"testing"

	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// TestConformance runs the shared PartitionStore contract suite against a
// real directory, so the durable store and iosim are held to identical
// semantics.
func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.PartitionStore {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, name, content string) {
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

// TestNoTmpAfterClose checks the atomic-publish mechanics on disk: the
// in-flight bytes live in a .tmp sibling, and after Close only the final
// name remains.
func TestNoTmpAfterClose(t *testing.T) {
	s := open(t)
	w, err := s.Create("superkmers/0001")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "bytes")
	tmp := filepath.Join(s.Root(), "superkmers", "0001.tmp")
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("in-flight .tmp sibling missing: %v", err)
	}
	final := filepath.Join(s.Root(), "superkmers", "0001")
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("final name exists before Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf(".tmp sibling survives Close: %v", err)
	}
	if _, err := os.Stat(final); err != nil {
		t.Fatalf("final name absent after Close: %v", err)
	}
}

// TestAbandonedTmpInvisible models a crashed writer: its .tmp remains on
// disk but must be invisible to Open and List, and Reset sweeps it.
func TestAbandonedTmpInvisible(t *testing.T) {
	s := open(t)
	w, err := s.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "partial bytes from a crashed writer")
	// No Close — simulate the process dying here.
	if _, err := s.Open("f"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Open of crashed write = %v, want ErrNotFound", err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("crashed write listed: %v", names)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "f.tmp")); !os.IsNotExist(err) {
		t.Errorf("Reset left the abandoned .tmp: %v", err)
	}
}

func TestResetKeepsRoot(t *testing.T) {
	s := open(t)
	put(t, s, "a/b", "x")
	put(t, s, "c", "y")
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("Reset left files: %v", names)
	}
	if _, err := os.Stat(s.Root()); err != nil {
		t.Errorf("Reset removed the root itself: %v", err)
	}
	// The store stays usable after a Reset.
	put(t, s, "fresh", "z")
	if n, err := s.Size("fresh"); err != nil || n != 1 {
		t.Errorf("store unusable after Reset: n=%d err=%v", n, err)
	}
}

// TestCreateMakesMissingDirectories: a nested name publishes into a fresh
// store, whose directories Create makes only on finding them missing, and
// again after Reset has removed them; a volatile create and a rename into a
// removed directory do the same.
func TestCreateMakesMissingDirectories(t *testing.T) {
	s := open(t)
	for round := 0; round < 2; round++ {
		put(t, s, "spill/0003/run-0000", "run")
		w, err := s.CreateVolatile("subgraphs/deep/0001.t2")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := s.RenameVolatile("subgraphs/deep/0001.t2", "promoted/0001"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		names, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"promoted/0001", "spill/0003/run-0000"}; !slices.Equal(names, want) {
			t.Fatalf("round %d: List = %v, want %v", round, names, want)
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRename covers fenced-file promotion: a published token-suffixed file
// moves atomically to its canonical name, replacing any previous content,
// and the source name stops resolving. The move flushes nothing; the Sync
// that names the canonical file flushes it and its directory once.
func TestRename(t *testing.T) {
	s := open(t)
	put(t, s, "subgraphs/0003.t7", "fenced")
	put(t, s, "subgraphs/0003", "stale")
	files, dirs := countFlushes(s)
	if err := s.RenameVolatile("subgraphs/0003.t7", "subgraphs/0003"); err != nil {
		t.Fatal(err)
	}
	if *files != 0 || *dirs != 0 {
		t.Fatalf("the rename flushed %d files and %d directories, want none", *files, *dirs)
	}
	r, err := s.Open("subgraphs/0003")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	if string(got) != "fenced" {
		t.Fatalf("promoted content = %q, want %q", got, "fenced")
	}
	if _, err := s.Open("subgraphs/0003.t7"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("source still readable after rename: %v", err)
	}
	if err := s.Sync("subgraphs/0003"); err != nil {
		t.Fatal(err)
	}
	if *files != 1 || *dirs != 1 {
		t.Fatalf("the covering Sync flushed %d files and %d directories, want 1 and 1", *files, *dirs)
	}
	// Renaming a missing source is the typed not-found, not a raw os error.
	if err := s.RenameVolatile("subgraphs/absent", "subgraphs/0004"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("RenameVolatile(absent) = %v, want store.ErrNotFound", err)
	}
	// Rename across directories creates the destination directory.
	put(t, s, "a/x", "move-me")
	if err := s.RenameVolatile("a/x", "b/deep/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Size("b/deep/y"); err != nil {
		t.Fatalf("cross-directory rename target missing: %v", err)
	}
	// Invalid names are rejected on both sides.
	if err := s.RenameVolatile("../escape", "ok"); err == nil {
		t.Fatal("RenameVolatile accepted an escaping source name")
	}
	if err := s.RenameVolatile("ok", "x.tmp"); err == nil {
		t.Fatal("RenameVolatile accepted a .tmp destination name")
	}
}

// countFlushes counts the store's file and directory fsyncs from here on.
func countFlushes(s *Store) (files, dirs *int) {
	files, dirs = new(int), new(int)
	var mu sync.Mutex // Sync flushes several files at once
	s.fsync = func(f *os.File) error {
		mu.Lock()
		*files++
		mu.Unlock()
		return f.Sync()
	}
	s.syncDir = func(dir string) {
		*dirs++
		syncDir(dir)
	}
	return files, dirs
}

// TestRemoveFlushesEachDirectoryOnce: removing many files costs one
// directory flush per directory that lost one — not one per file, and none
// for a directory whose names were all absent.
func TestRemoveFlushesEachDirectoryOnce(t *testing.T) {
	s := open(t)
	names := []string{"spill/0001/run-0000.t3", "spill/0001/run-0001.t3", "spill/0001/run-0002.t3", "subgraphs/0001.t3"}
	kept := []string{"spill/0001/run-0003.t4", "subgraphs/0002.t3"} // the directories stay
	for _, name := range append(names, kept...) {
		put(t, s, name, name)
	}
	_, dirs := countFlushes(s)
	if err := s.Remove(append(names, "spill/0002/run-0000.t3")...); err != nil {
		t.Fatal(err)
	}
	if *dirs != 2 {
		t.Errorf("removing files from 2 directories flushed %d directories", *dirs)
	}
	if left, _ := s.List(); !slices.Equal(left, kept) {
		t.Errorf("Remove left %v, want %v", left, kept)
	}
	if err := s.Remove("ok", "../escape", "also-ok"); err == nil {
		t.Error("Remove accepted an escaping name")
	}
}

// TestRemoveTakesEmptiedDirectories: a Remove that empties a directory
// removes it, and its parent if that is left empty too, flushing what
// remains once; a directory that still holds a file stays. Creates racing
// the removals still land, in a directory made again, and listings racing
// them still succeed.
func TestRemoveTakesEmptiedDirectories(t *testing.T) {
	s := open(t)
	runs := []string{"spill/0000/run-0000", "spill/0001/run-0000", "spill/0001/run-0001"}
	for _, name := range append(runs, "subgraphs/0000") {
		put(t, s, name, name)
	}
	_, dirs := countFlushes(s)
	if err := s.Remove(runs...); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "spill")); !os.IsNotExist(err) {
		t.Errorf("emptied spill directories left behind: %v", err)
	}
	if *dirs != 1 {
		t.Errorf("flushed %d directories, want the root once", *dirs)
	}
	if left, _ := s.List(); !slices.Equal(left, []string{"subgraphs/0000"}) {
		t.Errorf("Remove left %v", left)
	}

	s, err := Open(s.Root()) // without the single-threaded flush counter
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // a listing never fails on a directory taken mid-walk
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.List(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				// Its own partition directory, the spill directory shared.
				name := fmt.Sprintf("spill/%04d/run-%04d", w, i)
				f, err := s.CreateVolatile(name)
				if err == nil {
					err = f.Close()
				}
				if err == nil {
					err = s.Remove(name)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	wg.Wait()
	if left, err := s.List(); err != nil || !slices.Equal(left, []string{"subgraphs/0000"}) {
		t.Errorf("after racing creates and removes: %v, %v", left, err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "spill")); !os.IsNotExist(err) {
		t.Errorf("emptied spill directories left behind: %v", err)
	}
}

// TestInvalidNames checks that names escaping the root, empty names, and
// names colliding with the .tmp publishing convention are rejected on every
// entry point.
func TestInvalidNames(t *testing.T) {
	s := open(t)
	for _, name := range []string{
		"",
		"../escape",
		"a/../../escape",
		"a/./b",
		"/abs",
		"f.tmp",
		"dir/f.tmp",
	} {
		if _, err := s.Create(name); err == nil {
			t.Errorf("Create(%q) accepted", name)
		}
		if _, err := s.Open(name); err == nil || errors.Is(err, store.ErrNotFound) {
			t.Errorf("Open(%q) = %v, want invalid-name error", name, err)
		}
		if _, err := s.Size(name); err == nil || errors.Is(err, store.ErrNotFound) {
			t.Errorf("Size(%q) = %v, want invalid-name error", name, err)
		}
		if err := s.Remove(name); err == nil {
			t.Errorf("Remove(%q) accepted", name)
		}
	}
}

func TestOpenEmptyDirRejected(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") accepted")
	}
}

// TestReopenSeesPublishedFiles checks durability across Store instances —
// the property resume depends on: a second Open over the same directory
// serves everything the first published, with counters restarted.
func TestReopenSeesPublishedFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s1, "superkmers/0000", "persisted")
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s2.Open("superkmers/0000")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "persisted" {
		t.Errorf("reopened store read %q", data)
	}
}

// TestVolatilePublishSkipsFlushes pins what CreateVolatile saves and what
// Sync pays: a volatile Close flushes nothing, a durable one flushes its
// file, and Sync flushes each named file exactly once.
func TestVolatilePublishSkipsFlushes(t *testing.T) {
	s := open(t)
	var mu sync.Mutex // Sync flushes several files at once
	var flushed []string
	s.fsync = func(f *os.File) error {
		mu.Lock()
		flushed = append(flushed, filepath.Base(f.Name()))
		mu.Unlock()
		return f.Sync()
	}
	for _, name := range []string{"spill/0000/run-0000", "spill/0000/run-0001", "spill/0000/run-0002"} {
		w, err := s.CreateVolatile(name)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(w, name)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(s.Root(), name+".tmp")); !os.IsNotExist(err) {
			t.Errorf("%s: .tmp survives a volatile Close: %v", name, err)
		}
	}
	if len(flushed) != 0 {
		t.Fatalf("volatile publishes flushed %v", flushed)
	}
	put(t, s, "subgraphs/0000", "durable")
	if len(flushed) != 1 || flushed[0] != "0000.tmp" {
		t.Fatalf("durable publish flushed %v, want its .tmp", flushed)
	}
	flushed = nil
	if err := s.Sync("spill/0000/run-0000", "spill/0000/run-0001"); err != nil {
		t.Fatal(err)
	}
	sort.Strings(flushed)
	if len(flushed) != 2 || flushed[0] != "run-0000" || flushed[1] != "run-0001" {
		t.Fatalf("Sync flushed %v, want the two named runs", flushed)
	}
}

// TestFlushENOSPCIsDiskFull: delayed allocation can surface ENOSPC at the
// flush instead of at write(2); from a durable Close and from Sync alike it
// must classify as store.ErrDiskFull, and a failed Sync leaves the published
// file in place.
func TestFlushENOSPCIsDiskFull(t *testing.T) {
	s := open(t)
	w, err := s.CreateVolatile("spill/0000/run-0000")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "run")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s.fsync = func(f *os.File) error {
		return &os.PathError{Op: "sync", Path: f.Name(), Err: syscall.ENOSPC}
	}
	if err := s.Sync("spill/0000/run-0000"); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("ENOSPC at Sync: err = %v, want store.ErrDiskFull", err)
	}
	if n, err := s.Size("spill/0000/run-0000"); err != nil || n != 3 {
		t.Fatalf("file after a failed Sync: size %d, err %v", n, err)
	}
	d, err := s.Create("subgraphs/0000")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(d, "graph")
	if err := d.Close(); !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("ENOSPC at a durable Close: err = %v, want store.ErrDiskFull", err)
	}
	if _, err := s.Size("subgraphs/0000"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("failed durable Close published the file: err = %v", err)
	}
}
