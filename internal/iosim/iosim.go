// Package iosim provides an in-memory partition store, standing in for the
// disk and memory-cached files of the paper's evaluation in a build without
// a checkpoint directory. It charges no time: a build's IO seconds come from
// the byte counts core hands the cost model, so the Case 1 (memory-cached,
// IO ≪ compute) and Case 2 (disk, IO > compute) regimes of §IV-B reproduce
// deterministically on any host.
package iosim

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"parahash/internal/store"
)

// ErrNotFound reports an absent file. It aliases store.ErrNotFound so code
// written against the PartitionStore interface classifies missing files
// identically for both stores: a missing file is deterministic, so the
// resilient pipeline treats it as non-retryable.
var ErrNotFound = store.ErrNotFound

// Store is a named collection of in-memory files, implementing
// store.PartitionStore. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	files map[string]*bytes.Buffer
}

var _ store.PartitionStore = (*Store)(nil)

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{files: make(map[string]*bytes.Buffer)}
}

// Create opens a new version of a named file for writing. Matching the
// atomic-publish contract of store.PartitionStore, the written bytes become
// observable — replacing any previous content — only when Close succeeds;
// until then Open/Size/List serve the prior version (or ErrNotFound).
// Create itself never fails for the in-memory store; the error return
// satisfies the interface, whose durable implementations can fail here.
func (s *Store) Create(name string) (io.WriteCloser, error) {
	return &pendingWriter{store: s, buf: &bytes.Buffer{}, name: name}, nil
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
	return bytes.NewReader(bytes.Clone(buf.Bytes())), nil
}

// OpenStream serves the published blob itself: a publish replaces the blob,
// it never writes into it, so the version open at the time stays what the
// reader sees.
func (s *Store) OpenStream(name string) (store.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return streamReader{bytes.NewReader(buf.Bytes())}, nil
}

// streamReader is OpenStream's reader: the blob's reader, which has nothing
// to release.
type streamReader struct{ *bytes.Reader }

func (streamReader) Close() error { return nil }

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

// Remove deletes the named files that are present; removing an absent file
// is not an error.
func (s *Store) Remove(names ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		delete(s.files, name)
	}
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

type pendingWriter struct {
	store  *Store
	buf    *bytes.Buffer
	name   string
	closed bool
}

// Write appends to the in-flight (unpublished) buffer under the store lock.
func (w *pendingWriter) Write(p []byte) (int, error) {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	return w.buf.Write(p)
}

// Close publishes the written bytes under the file's name, atomically
// replacing any previous content — the in-memory analogue of diskstore's
// fsync-and-rename. Closing twice is a no-op.
func (w *pendingWriter) Close() error {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.store.files[w.name] = w.buf
	return nil
}
