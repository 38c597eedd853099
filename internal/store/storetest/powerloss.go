package storetest

import (
	"errors"
	"io"
	"sort"
	"sync"

	"parahash/internal/store"
)

// PowerLoss wraps a store with the part of a power cut that tests cannot
// stage on a live filesystem: it remembers every file published by
// CreateVolatile and not named by a Sync since, and Cut damages exactly
// those — the files whose bytes or directory entries were still in the page
// cache when the power went. Files published by Create, or synced, are never
// touched. A build killed over a PowerLoss store and then Cut leaves on the
// inner store what a real crash could have left, for a resume to open.
type PowerLoss struct {
	store.PartitionStore

	// LoseSyncs models a device that acknowledges flushes it never performs:
	// Sync still succeeds, but the named files stay at risk.
	LoseSyncs bool

	mu       sync.Mutex
	unsynced map[string]bool
}

// NewPowerLoss wraps inner; nothing is at risk yet.
func NewPowerLoss(inner store.PartitionStore) *PowerLoss {
	return &PowerLoss{PartitionStore: inner, unsynced: make(map[string]bool)}
}

// Create publishes durably: a successful Close takes the name out of risk.
func (p *PowerLoss) Create(name string) (io.WriteCloser, error) {
	return p.track(p.PartitionStore.Create, name, false)
}

// CreateVolatile publishes without a flush: a successful Close puts the name
// at risk until a Sync names it.
func (p *PowerLoss) CreateVolatile(name string) (io.WriteCloser, error) {
	return p.track(p.PartitionStore.CreateVolatile, name, true)
}

func (p *PowerLoss) track(create func(string) (io.WriteCloser, error), name string, volatile bool) (io.WriteCloser, error) {
	w, err := create(name)
	if err != nil {
		return nil, err
	}
	return &trackedWriter{WriteCloser: w, p: p, name: name, volatile: volatile}, nil
}

// Sync forwards, then takes the named files out of risk.
func (p *PowerLoss) Sync(names ...string) error {
	if err := p.PartitionStore.Sync(names...); err != nil {
		return err
	}
	if p.LoseSyncs {
		return nil
	}
	p.mu.Lock()
	for _, name := range names {
		delete(p.unsynced, name)
	}
	p.mu.Unlock()
	return nil
}

// Remove forwards; a removed file has nothing left to lose.
func (p *PowerLoss) Remove(name string) error {
	p.mu.Lock()
	delete(p.unsynced, name)
	p.mu.Unlock()
	return p.PartitionStore.Remove(name)
}

// Cut is the power cut: every file still at risk is dropped, or — with
// truncate — left under its name holding only the first half of its bytes.
// It returns the damaged names, sorted. Call it once the build using the
// store has returned.
func (p *PowerLoss) Cut(truncate bool) ([]string, error) {
	p.mu.Lock()
	names := make([]string, 0, len(p.unsynced))
	for name := range p.unsynced {
		names = append(names, name)
	}
	p.unsynced = make(map[string]bool)
	p.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		if !truncate {
			if err := p.PartitionStore.Remove(name); err != nil {
				return nil, err
			}
			continue
		}
		r, err := p.PartitionStore.Open(name)
		if errors.Is(err, store.ErrNotFound) {
			continue // removed behind the wrapper's back: nothing to damage
		}
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		w, err := p.PartitionStore.Create(name)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(data[:len(data)/2]); err != nil {
			w.Close()
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return names, nil
}

type trackedWriter struct {
	io.WriteCloser
	p        *PowerLoss
	name     string
	volatile bool
}

func (w *trackedWriter) Close() error {
	if err := w.WriteCloser.Close(); err != nil {
		return err
	}
	w.p.mu.Lock()
	if w.volatile {
		w.p.unsynced[w.name] = true
	} else {
		delete(w.p.unsynced, w.name)
	}
	w.p.mu.Unlock()
	return nil
}
