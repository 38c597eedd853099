// Package server implements parahashd's fault-hardened job lifecycle: a
// multi-tenant build/query service whose jobs survive process death.
//
// The package splits into three layers. The Journal (this file) is the
// durable source of truth: one JSON file, published with the same
// tmp+fsync+rename discipline as the checkpoint manifest, recording every
// job's spec and lifecycle state. The Manager (manager.go) owns the
// runtime: cross-job admission through a pipeline.Gate charged with each
// job's whole-graph Property-1 footprint, per-job deadlines feeding the
// pipeline watchdog, jittered retries on transient store faults, graceful
// drain, and crash recovery (scrub + resume) on startup. The HTTP layer
// (http.go) is a thin typed facade over the Manager.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"parahash/internal/atomicfile"
)

// JournalSchema versions the job journal format.
const JournalSchema = "parahash.jobs/v1"

// State is a job's lifecycle state. The transitions form the state machine
// documented in DESIGN §14:
//
//	queued → running → done
//	                 ↘ failed
//	queued/running → canceled
//
// "Shed" is deliberately not a journalled state: an overloaded server
// rejects the submission with HTTP 429 before anything is persisted, so a
// flood of rejected work cannot grow the journal without bound. A SIGKILL
// leaves running jobs journalled as running; startup recovery re-queues
// them with Resume set, which is what makes the state durable rather than
// merely persistent.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the client-supplied build parameterisation. Zero fields take
// the server's defaults.
type JobSpec struct {
	K            int     `json:"k,omitempty"`
	P            int     `json:"p,omitempty"`
	Partitions   int     `json:"partitions,omitempty"`
	TableBackend string  `json:"table_backend,omitempty"`
	FilterMin    int     `json:"filter_min,omitempty"`
	DeadlineSecs float64 `json:"deadline_secs,omitempty"`
}

// JobRecord is one journalled job: its spec, lifecycle state, and — once
// terminal — its outcome. Everything a restarted server needs to resume or
// report the job lives here; the bulky artifacts (input FASTQ, checkpoint,
// graph, metrics) live in the job's directory on disk.
type JobRecord struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`

	// TotalKmers is the input's k-mer count, measured once at submission;
	// a restarted server recomputes the job's admission weight from it
	// without re-parsing the input.
	TotalKmers int64 `json:"total_kmers"`
	// WeightBytes is the Property-1 predicted whole-graph hash-table
	// footprint charged against the cross-job admission gate.
	WeightBytes int64 `json:"weight_bytes"`

	// Attempts counts build attempts (including resumed ones after a
	// server restart or a transient-fault retry).
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks that at least one attempt resumed from the job's
	// checkpoint rather than starting fresh.
	Resumed bool `json:"resumed,omitempty"`

	// Error carries the terminal failure (failed/canceled states).
	Error string `json:"error,omitempty"`
	// Vertices and Edges describe the completed graph (done state).
	Vertices int64 `json:"vertices,omitempty"`
	Edges    int64 `json:"edges,omitempty"`

	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`
}

// journalFile is the serialised journal document. MaxSeq pins the id
// sequence's high-water mark so compaction can drop old terminal records
// without ever letting a restarted server reuse their ids.
type journalFile struct {
	Schema string      `json:"schema"`
	MaxSeq int         `json:"max_seq,omitempty"`
	Jobs   []JobRecord `json:"jobs"`
}

// Journal is the durable job table. Every mutation is persisted before it
// is acknowledged, with the manifest's atomic-publication discipline, so
// the journal a restarted server loads is always a consistent snapshot
// from some prefix of acknowledged mutations — never a torn write.
type Journal struct {
	mu   sync.Mutex
	path string
	jobs map[string]JobRecord
	// order preserves submission order for listings.
	order []string
	// maxSeq is the id sequence high-water mark, covering compacted-away
	// records too.
	maxSeq int
}

// ErrCorruptJournal reports a job journal file whose contents cannot be a
// journal this server wrote: not JSON of the journal's shape, another
// schema, a record without an id, or two records with one id.
var ErrCorruptJournal = errors.New("server: corrupt job journal")

// OpenJournal loads the journal at path, creating an empty one if the file
// does not exist yet. A file it cannot trust fails with ErrCorruptJournal.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, jobs: make(map[string]JobRecord)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: reading job journal: %w", err)
	}
	var doc journalFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w %s: %v", ErrCorruptJournal, path, err)
	}
	if doc.Schema != JournalSchema {
		return nil, fmt.Errorf("%w %s: schema %q, want %q", ErrCorruptJournal, path, doc.Schema, JournalSchema)
	}
	for _, r := range doc.Jobs {
		if r.ID == "" {
			return nil, fmt.Errorf("%w %s: a record without an id", ErrCorruptJournal, path)
		}
		if _, dup := j.jobs[r.ID]; dup {
			return nil, fmt.Errorf("%w %s: duplicate id %q", ErrCorruptJournal, path, r.ID)
		}
		j.jobs[r.ID] = r
		j.order = append(j.order, r.ID)
	}
	j.maxSeq = doc.MaxSeq
	if n := j.maxSeqFromIDsLocked(); n > j.maxSeq {
		j.maxSeq = n
	}
	return j, nil
}

// Get returns the record for id.
func (j *Journal) Get(id string) (JobRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.jobs[id]
	return r, ok
}

// List returns every record in submission order.
func (j *Journal) List() []JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JobRecord, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.jobs[id])
	}
	return out
}

// Put journals a new or updated record durably; the mutation is visible to
// readers only after the bytes are published.
func (j *Journal) Put(r JobRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, existed := j.jobs[r.ID]
	// Stage the mutation, persist, and only then commit it to the in-memory
	// view; a failed save leaves both the file and the view unchanged.
	staged := r
	if err := j.saveLocked(staged, existed); err != nil {
		return err
	}
	j.jobs[r.ID] = staged
	if !existed {
		j.order = append(j.order, r.ID)
	}
	return nil
}

// Update applies fn to the record for id and persists the result.
func (j *Journal) Update(id string, fn func(*JobRecord)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.jobs[id]
	if !ok {
		return fmt.Errorf("server: journal update: unknown job %q", id)
	}
	fn(&r)
	r.ID = id // fn must not re-key the record
	if err := j.saveLocked(r, true); err != nil {
		return err
	}
	j.jobs[id] = r
	return nil
}

// MaxSeq returns the id sequence high-water mark — the largest numeric
// suffix among "j<N>" ids ever journalled, including records compaction has
// since dropped — so a restarted server continues the sequence instead of
// reusing ids.
func (j *Journal) MaxSeq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := j.maxSeqFromIDsLocked(); n > j.maxSeq {
		j.maxSeq = n
	}
	return j.maxSeq
}

func (j *Journal) maxSeqFromIDsLocked() int {
	max := 0
	for id := range j.jobs {
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}

// Compact drops terminal records beyond the most recent retain, rewriting
// the journal atomically. Non-terminal records are always kept — recovery
// after a compacting restart is identical to recovery without it — and the
// max_seq high-water in the rewritten file keeps dropped ids retired
// forever. Returns how many records were dropped.
func (j *Journal) Compact(retain int) (int, error) {
	if retain < 0 {
		retain = 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := j.maxSeqFromIDsLocked(); n > j.maxSeq {
		j.maxSeq = n
	}
	terminal := 0
	for _, id := range j.order {
		if j.jobs[id].State.Terminal() {
			terminal++
		}
	}
	drop := terminal - retain
	if drop <= 0 {
		return 0, nil
	}
	// Submission order is oldest-first: walk from the front, dropping
	// terminal records until the budget is met.
	keptOrder := make([]string, 0, len(j.order)-drop)
	keptJobs := make(map[string]JobRecord, len(j.jobs)-drop)
	dropped := 0
	for _, id := range j.order {
		if dropped < drop && j.jobs[id].State.Terminal() {
			dropped++
			continue
		}
		keptOrder = append(keptOrder, id)
		keptJobs[id] = j.jobs[id]
	}
	// Persist the compacted view before committing it in memory; a failed
	// rewrite leaves the full journal intact.
	prevJobs, prevOrder := j.jobs, j.order
	j.jobs, j.order = keptJobs, keptOrder
	if err := j.persistLocked(); err != nil {
		j.jobs, j.order = prevJobs, prevOrder
		return 0, err
	}
	return dropped, nil
}

// saveLocked persists the journal including the staged record, atomically:
// marshal, write "<path>.tmp", fsync, rename, fsync the directory. A crash
// at any point leaves either the old or the new journal, never a mix.
func (j *Journal) saveLocked(staged JobRecord, existed bool) error {
	var n int
	if _, err := fmt.Sscanf(staged.ID, "j%d", &n); err == nil && n > j.maxSeq {
		j.maxSeq = n
	}
	doc := journalFile{Schema: JournalSchema, MaxSeq: j.maxSeq}
	ids := j.order
	if !existed {
		ids = append(append([]string(nil), j.order...), staged.ID)
	}
	for _, id := range ids {
		r := j.jobs[id]
		if id == staged.ID {
			r = staged
		}
		doc.Jobs = append(doc.Jobs, r)
	}
	return j.writeDoc(doc)
}

// persistLocked rewrites the journal from the current in-memory view.
func (j *Journal) persistLocked() error {
	doc := journalFile{Schema: JournalSchema, MaxSeq: j.maxSeq}
	for _, id := range j.order {
		doc.Jobs = append(doc.Jobs, j.jobs[id])
	}
	return j.writeDoc(doc)
}

// writeDoc publishes one serialised journal document atomically.
func (j *Journal) writeDoc(doc journalFile) error {
	err := atomicfile.WriteDurable(j.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
	if err != nil {
		return fmt.Errorf("server: writing job journal: %w", err)
	}
	return nil
}
