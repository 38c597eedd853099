package server

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put(JobRecord{ID: "j0001", State: StateQueued, SubmittedUnix: 100}); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(JobRecord{ID: "j0002", State: StateQueued, SubmittedUnix: 101}); err != nil {
		t.Fatal(err)
	}
	if err := j.Update("j0001", func(r *JobRecord) {
		r.State = StateDone
		r.Vertices = 42
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Update("j9999", func(*JobRecord) {}); err == nil {
		t.Error("update of unknown job succeeded")
	}

	// A reloaded journal sees the persisted mutations, in order.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	list := j2.List()
	if len(list) != 2 || list[0].ID != "j0001" || list[1].ID != "j0002" {
		t.Fatalf("reloaded list = %+v", list)
	}
	if r, _ := j2.Get("j0001"); r.State != StateDone || r.Vertices != 42 {
		t.Fatalf("reloaded j0001 = %+v", r)
	}
	if j2.MaxSeq() != 2 {
		t.Fatalf("MaxSeq = %d, want 2", j2.MaxSeq())
	}
}

func TestJournalRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	for _, body := range []string{
		"{torn",
		`{"schema":"parahash.jobs/v999","jobs":[]}`,
		`{"schema":"parahash.jobs/v1","jobs":[{"id":""}]}`,
		`{"schema":"parahash.jobs/v1","jobs":[{"id":"j1"},{"id":"j1"}]}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(path); !errors.Is(err, ErrCorruptJournal) {
			t.Errorf("journal %q: err %v, want ErrCorruptJournal", body, err)
		}
	}
}

// FuzzOpenJournal holds OpenJournal to its contract on arbitrary file
// contents: it fails with ErrCorruptJournal, or the journal it opens
// rewrites itself (persistLocked) into a file that reopens to the same
// records and id high-water mark. It never panics, and what it allocates
// grows with the file, not with what the file claims.
func FuzzOpenJournal(f *testing.F) {
	seedDir := f.TempDir()
	valid := filepath.Join(seedDir, "jobs.json")
	j, err := OpenJournal(valid)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []JobRecord{
		{ID: "j0001", State: StateDone, Spec: JobSpec{K: 27, P: 19, TableBackend: "sharded", DeadlineSecs: 1.5}, Vertices: 9, Edges: 12},
		{ID: "j0007", State: StateRunning, Attempts: 2, Resumed: true, TotalKmers: 1 << 40},
		{ID: "x", State: StateFailed, Error: "boomé"},
	} {
		if err := j.Put(r); err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(`{"schema":"parahash.jobs/v1","max_seq":12,"jobs":null}`))
	f.Add([]byte(`{"schema":"parahash.jobs/v1","max_seq":-3,"jobs":[{"id":"j5"},{"ID":"j+6","state":"queued"}]}`))
	f.Add([]byte(`{"SCHEMA":"parahash.jobs/v1","jobs":[{"id":"j99999999999999999999"}]}`))
	f.Add([]byte(`{"schema":"parahash.jobs/v1","jobs":[{"id":"j1"},{"id":"j1"}]}`))
	f.Add([]byte(`{"schema":"parahash.jobs/v1","jobs":[{"id":"\xff"}]}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.json")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, err := OpenJournal(path)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+512*uint64(len(data)) {
			t.Fatalf("opening a %d-byte journal allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		list, seq := j.List(), j.MaxSeq()
		j.mu.Lock()
		err = j.persistLocked()
		j.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("the rewritten journal does not reopen: %v", err)
		}
		if !reflect.DeepEqual(again.List(), list) || again.MaxSeq() != seq {
			t.Fatalf("reopened as %+v (max seq %d), want %+v (max seq %d)", again.List(), again.MaxSeq(), list, seq)
		}
	})
}
