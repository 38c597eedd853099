package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"parahash/internal/store"
)

// Store wraps any store.PartitionStore — the in-memory iosim store or the
// durable diskstore alike — with scripted IO faults: fail-N-then-succeed
// and persistent read, write and sync failures, served-byte corruption,
// wall-clock IO latency (SlowReadsNTimes/SlowWritesNTimes) and a device
// capacity budget (SetCapacityBytes) that turns further writes into
// store.ErrDiskFull once exhausted, modelling ENOSPC deterministically.
//
// The wrapper never touches the inner store's bytes: a corrupt read serves
// a bit-flipped copy of intact underlying data, and a failed or rejected
// write simply never reaches the inner writer. All methods are safe for
// concurrent use. Fault state is scoped to the wrapper instance, so
// concurrent chaos runs over separate wrappers never interfere.
type Store struct {
	inner store.PartitionStore

	mu          sync.Mutex
	readFaults  map[string]*storeFault
	writeFaults map[string]*storeFault
	syncFaults  map[string]*storeFault
	corruptions map[string]int
	slowReads   map[string]*slowFault
	slowWrites  map[string]*slowFault
	capacity    int64 // <= 0: unlimited
	accepted    int64 // bytes charged against the capacity budget
}

var _ store.PartitionStore = (*Store)(nil)

// storeFault is one scripted fault: remaining < 0 fires forever,
// remaining > 0 counts down a transient fault.
type storeFault struct {
	err       error
	remaining int
}

func (f *storeFault) take() bool {
	if f == nil || f.remaining == 0 {
		return false
	}
	if f.remaining > 0 {
		f.remaining--
	}
	return true
}

// slowFault is a countdown latency fault.
type slowFault struct {
	delay     time.Duration
	remaining int
}

func (f *slowFault) take() (time.Duration, bool) {
	if f == nil || f.remaining == 0 {
		return 0, false
	}
	if f.remaining > 0 {
		f.remaining--
	}
	return f.delay, true
}

// WrapStore wraps inner with a fresh, fault-free fault layer.
func WrapStore(inner store.PartitionStore) *Store {
	return &Store{
		inner:       inner,
		readFaults:  make(map[string]*storeFault),
		writeFaults: make(map[string]*storeFault),
		syncFaults:  make(map[string]*storeFault),
		corruptions: make(map[string]int),
		slowReads:   make(map[string]*slowFault),
		slowWrites:  make(map[string]*slowFault),
	}
}

// FailReadsOn makes every Open of the named file return err.
func (s *Store) FailReadsOn(name string, err error) { s.setFault(s.readFaults, name, -1, err) }

// FailReadsNTimes makes the next n Opens of the named file return err.
func (s *Store) FailReadsNTimes(name string, n int, err error) {
	s.setFault(s.readFaults, name, n, err)
}

// FailWritesOn makes every Write to the named file return err.
func (s *Store) FailWritesOn(name string, err error) { s.setFault(s.writeFaults, name, -1, err) }

// FailWritesNTimes makes the next n Writes to the named file return err.
func (s *Store) FailWritesNTimes(name string, n int, err error) {
	s.setFault(s.writeFaults, name, n, err)
}

// FailSyncsNTimes makes the next n Syncs that name the file return err — the
// flush-time failure (delayed-allocation ENOSPC, a dying device) that Write
// never saw.
func (s *Store) FailSyncsNTimes(name string, n int, err error) {
	s.setFault(s.syncFaults, name, n, err)
}

func (s *Store) setFault(m map[string]*storeFault, name string, n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil || n == 0 {
		delete(m, name)
		return
	}
	m[name] = &storeFault{err: err, remaining: n}
}

// CorruptReadsNTimes makes the next n Opens of the named file serve a copy
// with one bit flipped; negative n corrupts every Open, 0 clears.
func (s *Store) CorruptReadsNTimes(name string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == 0 {
		delete(s.corruptions, name)
		return
	}
	s.corruptions[name] = n
}

// SlowReadsNTimes delays the next n Opens of the named file by d
// wall-clock (negative n: every Open).
func (s *Store) SlowReadsNTimes(name string, n int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == 0 || d <= 0 {
		delete(s.slowReads, name)
		return
	}
	s.slowReads[name] = &slowFault{delay: d, remaining: n}
}

// SlowWritesNTimes delays the next n Writes to the named file by d
// wall-clock (negative n: every Write).
func (s *Store) SlowWritesNTimes(name string, n int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == 0 || d <= 0 {
		delete(s.slowWrites, name)
		return
	}
	s.slowWrites[name] = &slowFault{delay: d, remaining: n}
}

// SetCapacityBytes models a device with n bytes of free space: once the
// wrapper has accepted n cumulative bytes from writers, every further
// Write fails with an error wrapping store.ErrDiskFull. The budget is
// monotonic — removing files does not reclaim it — so a given plan's
// disk-full point is deterministic regardless of scheduling. n <= 0
// removes the limit.
func (s *Store) SetCapacityBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capacity = n
}

// Create opens a writer on the inner store, interposing write faults,
// latency and the capacity budget on every Write.
func (s *Store) Create(name string) (io.WriteCloser, error) {
	return s.createWith(s.inner.Create, name)
}

// CreateVolatile is Create over the inner store's volatile writer: the same
// faults apply whether or not Close will flush.
func (s *Store) CreateVolatile(name string) (io.WriteCloser, error) {
	return s.createWith(s.inner.CreateVolatile, name)
}

func (s *Store) createWith(create func(string) (io.WriteCloser, error), name string) (io.WriteCloser, error) {
	w, err := create(name)
	if err != nil {
		return nil, err
	}
	return &faultyWriter{store: s, inner: w, name: name}, nil
}

// Sync applies any scripted sync fault on the named files, then forwards.
func (s *Store) Sync(names ...string) error {
	s.mu.Lock()
	for _, name := range names {
		if f := s.syncFaults[name]; f.take() {
			err := f.err
			s.mu.Unlock()
			return fmt.Errorf("faultinject: syncing %q: %w", name, err)
		}
	}
	s.mu.Unlock()
	return s.inner.Sync(names...)
}

// Open serves the inner file, interposing read faults, latency and
// corruption. Corruption reads the intact inner snapshot and flips one
// bit in the served copy, so integrity footers must catch it downstream
// and a clean re-read recovers.
func (s *Store) Open(name string) (io.Reader, error) {
	corrupt, err := s.chargeOpen(name)
	if err != nil {
		return nil, err
	}
	r, err := s.inner.Open(name)
	if err != nil || !corrupt {
		return r, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		data[len(data)/2] ^= 0x01
	}
	return bytes.NewReader(data), nil
}

// OpenStream serves the inner stream under the script Open runs, charged
// once per open: a failed read fails the open, a corrupt one flips the same
// bit — the middle byte's lowest — wherever it is served, by Read or ReadAt.
func (s *Store) OpenStream(name string) (store.Stream, error) {
	corrupt, err := s.chargeOpen(name)
	if err != nil {
		return nil, err
	}
	r, err := s.inner.OpenStream(name)
	if err != nil || !corrupt {
		return r, err
	}
	return &corruptStream{Stream: r, flipAt: r.Size() / 2}, nil
}

// chargeOpen applies one open's worth of the read script for name — latency,
// then a scripted failure — and reports whether the served bytes are to be
// corrupted.
func (s *Store) chargeOpen(name string) (corrupt bool, err error) {
	s.mu.Lock()
	delay, slow := s.slowReads[name].take()
	if f := s.readFaults[name]; f.take() {
		err = fmt.Errorf("faultinject: reading %q: %w", name, f.err)
	} else if n := s.corruptions[name]; n != 0 {
		corrupt = true
		if n > 0 {
			if n--; n == 0 {
				delete(s.corruptions, name)
			} else {
				s.corruptions[name] = n
			}
		}
	}
	s.mu.Unlock()
	if slow {
		time.Sleep(delay)
	}
	return corrupt, err
}

// corruptStream flips the lowest bit of the byte at offset flipAt.
type corruptStream struct {
	store.Stream
	pos, flipAt int64
}

func (c *corruptStream) Read(p []byte) (int, error) {
	n, err := c.Stream.Read(p)
	c.flip(p[:n], c.pos)
	c.pos += int64(n)
	return n, err
}

func (c *corruptStream) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.Stream.ReadAt(p, off)
	c.flip(p[:n], off)
	return n, err
}

// flip corrupts p, the bytes served from offset off, if flipAt is among them.
func (c *corruptStream) flip(p []byte, off int64) {
	if i := c.flipAt - off; i >= 0 && i < int64(len(p)) {
		p[i] ^= 0x01
	}
}

// Size forwards to the inner store.
func (s *Store) Size(name string) (int64, error) { return s.inner.Size(name) }

// Remove forwards to the inner store.
func (s *Store) Remove(names ...string) error { return s.inner.Remove(names...) }

// List forwards to the inner store.
func (s *Store) List() ([]string, error) { return s.inner.List() }

// faultyWriter interposes the wrapper's write faults on one Create stream.
type faultyWriter struct {
	store *Store
	inner io.WriteCloser
	name  string
}

// Write applies, in order: latency, scripted write faults, the capacity
// budget; only then does the inner writer see the bytes.
func (w *faultyWriter) Write(p []byte) (int, error) {
	s := w.store
	s.mu.Lock()
	delay, slow := s.slowWrites[w.name].take()
	if f := s.writeFaults[w.name]; f.take() {
		err := f.err
		s.mu.Unlock()
		if slow {
			time.Sleep(delay)
		}
		return 0, fmt.Errorf("faultinject: writing %q: %w", w.name, err)
	}
	if s.capacity > 0 && s.accepted+int64(len(p)) > s.capacity {
		capacity := s.capacity
		s.mu.Unlock()
		return 0, fmt.Errorf("faultinject: writing %q: %w: capacity %d bytes exhausted",
			w.name, store.ErrDiskFull, capacity)
	}
	s.accepted += int64(len(p))
	s.mu.Unlock()
	if slow {
		time.Sleep(delay)
	}
	return w.inner.Write(p)
}

// Close forwards to the inner writer (publishing on success, per the
// PartitionStore contract).
func (w *faultyWriter) Close() error { return w.inner.Close() }
