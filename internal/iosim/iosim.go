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
// copied at open time, so concurrent writers do not disturb readers.
func (s *Store) Open(name string) (io.Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.bytesRead += int64(buf.Len())
	return bytes.NewReader(bytes.Clone(buf.Bytes())), nil
}

// OpenStream serves the published blob itself: a publish replaces the blob,
// it never writes into it, so the version open at the time stays what the
// reader sees. Bytes are counted as they are read.
func (s *Store) OpenStream(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &streamReader{store: s, r: bytes.NewReader(buf.Bytes())}, nil
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
