package storetest

import (
	"io"
	"strings"
	"sync"

	"parahash/internal/manifest"
	"parahash/internal/store"
)

// Recorder is the recording store: it forwards every call and remembers
// which names were published durably (Create) and which volatile
// (CreateVolatile), how often a successful Sync has covered each name, how
// many Sync calls succeeded and how many of them named a subgraph
// ("subgraphs/…": one per Step 2 commit group). Read the fields once the
// build using the store has returned; while it runs, TimesSynced is safe.
type Recorder struct {
	store.PartitionStore

	mu            sync.Mutex
	Durable       map[string]bool
	Volatile      map[string]bool
	Synced        map[string]int
	SyncCalls     int
	SubgraphSyncs int
}

// NewRecorder wraps inner with nothing recorded yet.
func NewRecorder(inner store.PartitionStore) *Recorder {
	return &Recorder{PartitionStore: inner, Durable: map[string]bool{}, Volatile: map[string]bool{}, Synced: map[string]int{}}
}

func (r *Recorder) Create(name string) (io.WriteCloser, error) {
	r.mu.Lock()
	r.Durable[name] = true
	r.mu.Unlock()
	return r.PartitionStore.Create(name)
}

func (r *Recorder) CreateVolatile(name string) (io.WriteCloser, error) {
	r.mu.Lock()
	r.Volatile[name] = true
	r.mu.Unlock()
	return r.PartitionStore.CreateVolatile(name)
}

func (r *Recorder) Sync(names ...string) error {
	if err := r.PartitionStore.Sync(names...); err != nil {
		return err
	}
	r.mu.Lock()
	r.SyncCalls++
	group := false
	for _, name := range names {
		r.Synced[name]++
		group = group || strings.HasPrefix(name, "subgraphs/")
	}
	if group {
		r.SubgraphSyncs++
	}
	r.mu.Unlock()
	return nil
}

// TimesSynced is how many successful Syncs have named name so far.
func (r *Recorder) TimesSynced(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Synced[name]
}

// JournalWatch observes one build's manifest saves against the Recorder its
// files go through: hand Observe to the checkpoint's save hook, which calls
// it with each manifest about to be saved, one save at a time.
type JournalWatch struct {
	Rec *Recorder
	// Saves counts every save observed, Step2Saves those that claimed at
	// least one more subgraph; ScanRuns is each partition's run count as
	// claimed; Claims and Completions count, per partition, the saves that
	// claimed its scan and that journalled its subgraph.
	Saves       int
	Step2Saves  int
	ScanRuns    map[int]int
	Claims      map[int]int
	Completions map[int]int
	// Unsynced lists claimed names no Sync had covered when the save began.
	Unsynced []string
}

// NewJournalWatch watches saves against rec.
func NewJournalWatch(rec *Recorder) *JournalWatch {
	return &JournalWatch{Rec: rec, ScanRuns: map[int]int{}, Claims: map[int]int{}, Completions: map[int]int{}}
}

// Observe checks one manifest about to be saved: every name a claim in it
// makes — Step 1 roster, Step 2 subgraphs, spill runs — must have been
// synced already.
func (w *JournalWatch) Observe(m *manifest.Manifest) {
	w.Saves++
	var claimed []string
	for _, rec := range m.Step1 {
		claimed = append(claimed, rec.Name)
	}
	for _, rec := range m.Step2 {
		claimed = append(claimed, rec.Name)
	}
	for _, run := range m.SpillRuns {
		claimed = append(claimed, run.Name)
	}
	w.Rec.mu.Lock()
	for _, name := range claimed {
		if w.Rec.Synced[name] == 0 {
			w.Unsynced = append(w.Unsynced, name)
		}
	}
	w.Rec.mu.Unlock()
	// One save carries one mutation: a partition's scan newly claimed, or a
	// group of partitions newly complete (lease saves claim neither).
	for _, p := range m.SpillDone {
		if runs := len(m.SpillRunsFor(p)); w.ScanRuns[p] != runs {
			w.ScanRuns[p] = runs
			w.Claims[p]++
		}
	}
	grew := false
	for _, rec := range m.Step2 {
		if w.Completions[rec.Index] == 0 {
			w.Completions[rec.Index] = 1
			grew = true
		}
	}
	if grew {
		w.Step2Saves++
	}
}
