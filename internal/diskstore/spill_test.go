package diskstore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parahash/internal/dna"
	"parahash/internal/graph"
)

// publishRun writes a complete PHSR spill run of n vertices under name,
// with ascending k-mers starting at base so every run is distinct and
// strictly ordered.
func publishRun(t testing.TB, s *Store, name string, k int, base uint64, n int) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatalf("creating %s: %v", name, err)
	}
	rw, err := graph.NewRunWriter(w, k, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := graph.Vertex{Kmer: dna.Kmer{Lo: base + uint64(i)}}
		v.Counts[0] = 1
		if err := rw.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("publishing %s: %v", name, err)
	}
}

// TestConcurrentSpillRunPublication drives the out-of-core write pattern
// against the durable store: many goroutines publishing spill runs for
// different partitions at once, with a sweeper looping SweepTmp the whole
// time. The store knows its live writers, so the sweep must never take an
// in-flight file: every publish succeeds first time, every published run
// verifies (header, records, CRC footer), and an orphan planted beside
// them is still swept.
func TestConcurrentSpillRunPublication(t *testing.T) {
	s := open(t)
	const (
		k          = 15
		partitions = 8
		runsPer    = 4
		vertsPer   = 50
	)

	// A crashed writer's leftover, next to where live writers will work.
	orphan := filepath.Join(s.Root(), "spill", "0000", "run-9999.tmp")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.SweepTmp(); err != nil {
				t.Errorf("concurrent SweepTmp: %v", err)
				return
			}
		}
	}()

	var pub sync.WaitGroup
	for p := 0; p < partitions; p++ {
		p := p
		pub.Add(1)
		go func() {
			defer pub.Done()
			for r := 0; r < runsPer; r++ {
				name := fmt.Sprintf("spill/%04d/run-%04d", p, r)
				base := uint64(p)<<32 | uint64(r)<<16
				if err := tryPublishRun(s, name, k, base, vertsPer); err != nil {
					t.Errorf("publishing %s under a concurrent sweep: %v", name, err)
					return
				}
			}
		}()
	}
	pub.Wait()
	close(stop)
	wg.Wait()
	// One sweep certainly ran, however the scheduler treated the sweeper.
	if _, err := s.SweepTmp(); err != nil {
		t.Fatal(err)
	}

	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := partitions * runsPer; len(names) != want {
		t.Fatalf("published %d runs, want %d: %v", len(names), want, names)
	}
	for _, name := range names {
		src, err := s.Open(name)
		if err != nil {
			t.Fatalf("opening %s: %v", name, err)
		}
		count, _, err := graph.VerifyRun(src, k)
		if err != nil {
			t.Fatalf("run %s does not verify after concurrent publication: %v", name, err)
		}
		if count != vertsPer {
			t.Fatalf("run %s holds %d vertices, want %d", name, count, vertsPer)
		}
	}
	// Every writer has closed and the sweeper ran throughout: neither an
	// in-flight file nor the planted orphan may be left.
	err = filepath.WalkDir(s.Root(), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".tmp") {
			t.Errorf("leftover in-flight file %s", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tryPublishRun is publishRun returning its error, for goroutines that may
// not call t.Fatal.
func tryPublishRun(s *Store, name string, k int, base uint64, n int) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	rw, err := graph.NewRunWriter(w, k, int64(n))
	if err != nil {
		w.Close()
		return err
	}
	for i := 0; i < n; i++ {
		v := graph.Vertex{Kmer: dna.Kmer{Lo: base + uint64(i)}}
		v.Counts[0] = 1
		if err := rw.Add(v); err != nil {
			w.Close()
			return err
		}
	}
	if err := rw.Finish(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// TestSweepSparesInFlightMerge pins the snapshot contract the k-way merge
// depends on: once a run is Open'd, sweeping tmp files and Remove-ing the
// run (the coordinator's fenced-orphan sweep racing a reader) must not
// disturb the already-open reader — it drains its snapshot to the verified
// footer.
func TestSweepSparesInFlightMerge(t *testing.T) {
	s := open(t)
	const k, n = 15, 200
	names := []string{"spill/0000/run-0000.t3", "spill/0000/run-0001.t3"}
	for i, name := range names {
		publishRun(t, s, name, k, uint64(i)<<32, n)
	}

	readers := make([]*graph.RunReader, len(names))
	for i, name := range names {
		src, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := graph.NewRunReader(src)
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = rr
	}

	// The sweep lands mid-merge: fenced orphans removed, tmp swept.
	for _, name := range names {
		if err := s.Remove(name); err != nil {
			t.Fatalf("removing %s: %v", name, err)
		}
	}
	if _, err := s.SweepTmp(); err != nil {
		t.Fatal(err)
	}

	total := 0
	err := graph.MergeRuns(readers, func(graph.Vertex) error {
		total++
		return nil
	})
	if err != nil {
		t.Fatalf("merge over swept runs failed: %v", err)
	}
	if total != len(names)*n {
		t.Fatalf("merge emitted %d vertices, want %d (runs are disjoint)", total, len(names)*n)
	}
	left, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("store not empty after sweep: %v", left)
	}
}
