// Package iosim provides an in-memory partition store with exact byte
// accounting, standing in for the disk and memory-cached files of the
// paper's evaluation. Experiments charge IO time against the store's byte
// counters using costmodel bandwidths, so the Case 1 (memory-cached,
// IO ≪ compute) and Case 2 (disk, IO > compute) regimes of §IV-B reproduce
// deterministically on any host.
package iosim

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"parahash/internal/costmodel"
	"parahash/internal/store"
)

// ErrNotFound reports an absent file. It aliases store.ErrNotFound so code
// written against the PartitionStore interface classifies missing files
// identically for both stores: a missing file is deterministic, so the
// resilient pipeline treats it as non-retryable.
var ErrNotFound = store.ErrNotFound

// fault is one scripted IO fault. remaining < 0 means the fault fires on
// every access (the original persistent hooks); remaining > 0 counts down a
// transient fail-N-then-succeed fault.
type fault struct {
	err       error
	remaining int
}

// take reports whether the fault fires for this access and consumes one
// shot of a transient fault.
func (f *fault) take() bool {
	if f == nil || f.remaining == 0 {
		return false
	}
	if f.remaining > 0 {
		f.remaining--
	}
	return true
}

// Store is a named collection of in-memory files with byte accounting,
// implementing store.PartitionStore. All methods are safe for concurrent
// use.
type Store struct {
	// Medium tags the store with the IO device it models.
	Medium costmodel.Medium

	mu           sync.Mutex
	files        map[string]*bytes.Buffer
	bytesRead    int64
	bytesWritten int64
	writeFaults  map[string]*fault
	readFaults   map[string]*fault
	corruptions  map[string]int
}

var _ store.PartitionStore = (*Store)(nil)

// NewStore creates an empty store modelling the given medium.
func NewStore(m costmodel.Medium) *Store {
	return &Store{Medium: m, files: make(map[string]*bytes.Buffer)}
}

// Create opens a new version of a named file for writing. Matching the
// atomic-publish contract of store.PartitionStore, the written bytes become
// observable — replacing any previous content — only when Close succeeds;
// until then Open/Size/List serve the prior version (or ErrNotFound).
// Create itself never fails for the in-memory store; the error return
// satisfies the interface, whose durable implementations can fail here.
func (s *Store) Create(name string) (io.WriteCloser, error) {
	return &countingWriter{store: s, buf: &bytes.Buffer{}, name: name}, nil
}

// CreateVolatile is Create: memory has no flush to defer.
func (s *Store) CreateVolatile(name string) (io.WriteCloser, error) { return s.Create(name) }

// Sync has nothing to flush; it only holds the contract's ErrNotFound for a
// name that was never published.
func (s *Store) Sync(names ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		if _, ok := s.files[name]; !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
	}
	return nil
}

// Open returns a reader over a file's current content. The content is
// copied at open time, so concurrent writers do not disturb readers, and a
// scripted read fault (FailReadsNTimes) charges its budget exactly once per
// Open — never per Read call on the returned snapshot reader.
func (s *Store) Open(name string) (io.Reader, error) {
	data, err := s.snapshot(name, true)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.bytesRead += int64(len(data))
	s.mu.Unlock()
	return bytes.NewReader(data), nil
}

// OpenStream serves the published blob itself: a publish replaces the blob,
// it never writes into it, so the version open at the time stays what the
// reader sees. Scripted read faults apply as in Open, once per open; bytes
// are counted as they are read.
func (s *Store) OpenStream(name string) (io.ReadCloser, error) {
	data, err := s.snapshot(name, false)
	if err != nil {
		return nil, err
	}
	return &streamReader{store: s, r: bytes.NewReader(data)}, nil
}

// snapshot charges one open of name against its scripted read faults and
// returns the bytes to serve: the published blob, or a copy of it when the
// caller wants its own or a scripted corruption is to flip a bit in it.
func (s *Store) snapshot(name string, own bool) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.readFaults[name]; f.take() {
		return nil, fmt.Errorf("iosim: reading %q: %w", name, f.err)
	}
	buf, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	data := buf.Bytes()
	n := s.corruptions[name]
	corrupt := n != 0 && len(data) > 0
	if own || corrupt {
		data = append([]byte(nil), data...)
	}
	if corrupt {
		// Flip one bit in the middle of the served copy; the stored file
		// stays intact, so a re-read after integrity detection recovers.
		data[len(data)/2] ^= 0x01
		if n > 0 {
			if n--; n == 0 {
				delete(s.corruptions, name)
			} else {
				s.corruptions[name] = n
			}
		}
	}
	return data, nil
}

// streamReader is OpenStream's reader.
type streamReader struct {
	store *Store
	r     *bytes.Reader
}

func (r *streamReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.store.mu.Lock()
	r.store.bytesRead += int64(n)
	r.store.mu.Unlock()
	return n, err
}

func (r *streamReader) Close() error { return nil }

// Size returns a file's byte size, or an error if absent.
func (s *Store) Size(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return int64(buf.Len()), nil
}

// Remove deletes a file if present; removing an absent file is not an
// error.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

// List returns the stored file names, sorted.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// TotalBytes returns the sum of all file sizes.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, buf := range s.files {
		total += int64(buf.Len())
	}
	return total
}

// BytesRead returns the cumulative bytes served to readers.
func (s *Store) BytesRead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesRead
}

// BytesWritten returns the cumulative bytes accepted from writers.
func (s *Store) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

// ReadSeconds charges the given byte volume as a read on this medium.
func (s *Store) ReadSeconds(cal costmodel.Calibration, bytes int64) float64 {
	return cal.ReadSeconds(s.Medium, bytes)
}

// WriteSeconds charges the given byte volume as a write on this medium.
func (s *Store) WriteSeconds(cal costmodel.Calibration, bytes int64) float64 {
	return cal.WriteSeconds(s.Medium, bytes)
}

type countingWriter struct {
	store  *Store
	buf    *bytes.Buffer
	name   string
	closed bool
}

// Write appends to the in-flight (unpublished) buffer under the store lock.
func (w *countingWriter) Write(p []byte) (int, error) {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if f := w.store.writeFaults[w.name]; f.take() {
		return 0, fmt.Errorf("iosim: writing %q: %w", w.name, f.err)
	}
	n, err := w.buf.Write(p)
	w.store.bytesWritten += int64(n)
	return n, err
}

// Close publishes the written bytes under the file's name, atomically
// replacing any previous content — the in-memory analogue of diskstore's
// fsync-and-rename. Closing twice is a no-op.
func (w *countingWriter) Close() error {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.store.files[w.name] = w.buf
	return nil
}

// Fault injection: experiments and tests use these hooks to verify that
// pipeline stages surface IO failures cleanly instead of wedging.

// FailWritesOn makes every Write to the named file (existing or future)
// return err. Passing a nil error clears the fault.
func (s *Store) FailWritesOn(name string, err error) {
	s.setFault(&s.writeFaults, name, -1, err)
}

// FailReadsOn makes every Open of the named file return err.
func (s *Store) FailReadsOn(name string, err error) {
	s.setFault(&s.readFaults, name, -1, err)
}

// FailWritesNTimes makes the next n Writes to the named file return err,
// then lets writes succeed again — a transient fail-N-then-succeed fault.
func (s *Store) FailWritesNTimes(name string, n int, err error) {
	s.setFault(&s.writeFaults, name, n, err)
}

// FailReadsNTimes makes the next n Opens of the named file return err, then
// lets reads succeed again.
func (s *Store) FailReadsNTimes(name string, n int, err error) {
	s.setFault(&s.readFaults, name, n, err)
}

// CorruptReadsNTimes makes the next n Opens of the named file serve a copy
// with one bit flipped; negative n corrupts every Open. The stored bytes
// are untouched, so a reader that detects the corruption (e.g. via the msp
// integrity footer) recovers by re-reading — unless the corruption is
// persistent. n = 0 clears the fault.
func (s *Store) CorruptReadsNTimes(name string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.corruptions == nil {
		s.corruptions = make(map[string]int)
	}
	if n == 0 {
		delete(s.corruptions, name)
		return
	}
	s.corruptions[name] = n
}

// setFault installs or clears a fault in the given map. n < 0 is
// persistent; a nil error clears.
func (s *Store) setFault(m *map[string]*fault, name string, n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if *m == nil {
		*m = make(map[string]*fault)
	}
	if err == nil || n == 0 {
		delete(*m, name)
		return
	}
	(*m)[name] = &fault{err: err, remaining: n}
}
