// Package diskstore is the durable store.PartitionStore: partition files
// live in a real directory and survive the process. Writes follow the
// journal discipline of disk-based k-mer counting tools (MSPKmerCounter,
// KMC2-style partition spilling): every Create streams into a "<name>.tmp"
// sibling and Close publishes it with fsync + atomic os.Rename + parent
// directory fsync, so a crash — including SIGKILL and power loss — at any
// point leaves either the complete previous file or the complete new file
// under the final name, never a partial one. Stale .tmp files from a
// crashed writer are invisible to Open/List and are swept by Reset and
// SweepTmp; the .tmp of a writer still open on this Store is registered as
// live, and no sweep touches it. CreateVolatile keeps the .tmp + rename
// publish but leaves both fsyncs to a later Sync over the names a journal is
// about to claim, so files nothing ever claims are never flushed.
package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"parahash/internal/store"
)

// tmpSuffix marks in-flight (unpublished) files.
const tmpSuffix = ".tmp"

// Store is a PartitionStore rooted at a directory. All methods are safe for
// concurrent use.
type Store struct {
	root string

	mu sync.Mutex
	// live counts the open writers (Create to Close) of each .tmp path:
	// what tells an in-flight file from a crashed writer's orphan.
	live map[string]int
	// fsync flushes one open file and syncDir one directory; tests replace
	// them to surface flush errors and to count flushes.
	fsync   func(*os.File) error
	syncDir func(dir string)
	// dirs orders Remove taking emptied directories away against creates
	// that found their directory missing and make it, so in one process
	// neither undoes the other mid-way.
	dirs sync.Mutex
}

var _ store.PartitionStore = (*Store)(nil)

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskstore: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: creating root: %w", err)
	}
	return &Store{root: dir, live: make(map[string]int), fsync: (*os.File).Sync, syncDir: syncDir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// pathOf maps a slash-separated store name onto the filesystem, rejecting
// names that would escape the root.
func (s *Store) pathOf(name string) (string, error) {
	if name == "" || path.Clean("/"+name) != "/"+name || strings.HasSuffix(name, tmpSuffix) {
		return "", fmt.Errorf("diskstore: invalid file name %q", name)
	}
	return filepath.Join(s.root, filepath.FromSlash(name)), nil
}

// Create opens a named file for writing. Bytes stream into "<name>.tmp";
// Close fsyncs, atomically renames it over the final name, and fsyncs the
// parent directory, so the file is observable under its name only once it
// is complete and durable.
func (s *Store) Create(name string) (io.WriteCloser, error) {
	return s.create(name, false)
}

// CreateVolatile is Create without the two fsyncs: Close still publishes the
// complete file by atomic rename, but neither its bytes nor its directory
// entry are durable until a Sync names it.
func (s *Store) CreateVolatile(name string) (io.WriteCloser, error) {
	return s.create(name, true)
}

func (s *Store) create(name string, volatile bool) (io.WriteCloser, error) {
	final, err := s.pathOf(name)
	if err != nil {
		return nil, err
	}
	// Registered before the file exists and under the lock SweepTmp removes
	// under, so a sweep sees either no file or a live one.
	tmp := final + tmpSuffix
	s.mu.Lock()
	s.live[tmp]++
	s.mu.Unlock()
	var f *os.File
	err = s.inParent(tmp, func() (err error) {
		f, err = os.Create(tmp)
		return err
	})
	if err != nil {
		s.release(tmp)
		return nil, fmt.Errorf("diskstore: creating %q: %w", name, err)
	}
	return &atomicFile{store: s, f: f, tmp: tmp, final: final, volatile: volatile}, nil
}

// inParent runs op, which makes an entry at p, and when it fails because
// p's directory is missing makes the directory and runs op again; most
// files land in a directory that exists and pay no stat for it. A Remove
// may take an emptied directory away in between: s.dirs orders this
// Store's, and a few tries cover another process's, whose rmdir inside
// MkdirAll reads as the directory missing, or as existing after all.
func (s *Store) inParent(p string, op func() error) error {
	err := op()
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	s.dirs.Lock()
	defer s.dirs.Unlock()
	for try := 0; try < 4 && errors.Is(err, fs.ErrNotExist); try++ {
		if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil || errors.Is(err, fs.ErrExist) {
			err = op()
		}
	}
	return err
}

// syncParallelism is how many files Sync flushes at once. An fsync is time
// spent waiting on the device, not computing, so a few in flight overlap the
// waits; more than a few only queue on the same journal.
const syncParallelism = 4

// Sync makes the named published files durable: it fsyncs each file —
// syncParallelism at a time — then each distinct parent directory once: the
// two flushes CreateVolatile skipped, batched over everything a journal claim
// is about to name. The error returned is the first-named failing file's.
func (s *Store) Sync(names ...string) error {
	dirs, errs := make([]string, len(names)), make([]error, len(names))
	slots := make(chan struct{}, syncParallelism)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		slots <- struct{}{}
		go func(i int, name string) {
			dirs[i], errs[i] = s.syncFile(name)
			<-slots
			wg.Done()
		}(i, name)
	}
	wg.Wait()
	synced := make(map[string]bool)
	for i, err := range errs {
		if err != nil {
			return err
		}
		if !synced[dirs[i]] {
			synced[dirs[i]] = true
			s.syncDir(dirs[i])
		}
	}
	return nil
}

// syncFile fsyncs one published file and returns its directory.
func (s *Store) syncFile(name string) (string, error) {
	p, err := s.pathOf(name)
	if err != nil {
		return "", err
	}
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: %q", store.ErrNotFound, name)
		}
		return "", fmt.Errorf("diskstore: syncing %q: %w", name, err)
	}
	err = s.fsync(f)
	f.Close()
	if err != nil {
		return "", fmt.Errorf("diskstore: syncing %q: %w", name, classify(err))
	}
	return filepath.Dir(p), nil
}

// release drops one writer of a .tmp path from the live set.
func (s *Store) release(tmp string) {
	s.mu.Lock()
	if s.live[tmp]--; s.live[tmp] <= 0 {
		delete(s.live, tmp)
	}
	s.mu.Unlock()
}

// Open returns a reader over a snapshot of the file's published content.
// The whole file is read at open time — mirroring iosim.Store's snapshot
// semantics. The reader knows what it holds (Len), so a
// loader that wants the whole image sizes its buffer once instead of
// growing it.
func (s *Store) Open(name string) (io.Reader, error) {
	p, err := s.pathOf(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, readErr(name, err)
	}
	return bytes.NewReader(data), nil
}

// OpenStream returns a streaming reader over the published file: the open
// descriptor pins the inode published at open time, so a later publish —
// an atomic rename over the name — never disturbs it, and its size is that
// inode's. Close releases the descriptor.
func (s *Store) OpenStream(name string) (store.Stream, error) {
	p, err := s.pathOf(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, readErr(name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return &streamFile{File: f, size: st.Size()}, nil
}

// readErr types a failed open for reading: an absent file is
// store.ErrNotFound.
func readErr(name string, err error) error {
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %q", store.ErrNotFound, name)
	}
	return fmt.Errorf("diskstore: reading %q: %w", name, err)
}

// streamFile is OpenStream's reader: the open file, and the size of the
// version it pins.
type streamFile struct {
	*os.File
	size int64
}

func (r *streamFile) Size() int64 { return r.size }

// Size returns a published file's byte size, or an error wrapping
// store.ErrNotFound if absent.
func (s *Store) Size(name string) (int64, error) {
	p, err := s.pathOf(name)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %q", store.ErrNotFound, name)
		}
		return 0, fmt.Errorf("diskstore: %q: %w", name, err)
	}
	return st.Size(), nil
}

// Remove deletes the named files that are present and every directory
// below the root this leaves empty, then fsyncs once each directory that
// lost an entry and remains, so deletions are durable with the same
// guarantee as Close's publication rename — after Remove returns, a crash
// or power loss can never resurrect a deleted file. An invalid name or a
// failed unlink stops the removal; what was unlinked before it is flushed
// all the same.
func (s *Store) Remove(names ...string) error {
	dirs := make(map[string]bool)
	var err error
	for _, name := range names {
		var p string
		if p, err = s.pathOf(name); err != nil {
			break
		}
		if rerr := os.Remove(p); rerr == nil {
			dirs[filepath.Dir(p)] = true
		} else if !os.IsNotExist(rerr) {
			err = fmt.Errorf("diskstore: removing %q: %w", name, rerr)
			break
		}
	}
	// Only an empty directory goes, and then its parent if that is left
	// empty too.
	root := filepath.Clean(s.root)
	gone, flush := make(map[string]bool), make(map[string]bool)
	s.dirs.Lock()
	for dir := range dirs {
		for dir != root && os.Remove(dir) == nil {
			gone[dir] = true
			dir = filepath.Dir(dir)
		}
		flush[dir] = true
	}
	s.dirs.Unlock()
	for dir := range flush {
		if !gone[dir] {
			s.syncDir(dir)
		}
	}
	return err
}

// RenameVolatile atomically moves a published file from oldName to newName,
// overwriting any previous file under newName, and flushes nothing: after a
// crash newName holds its previous content or the complete moved file, never
// a mix, but the move itself is durable only once a Sync names newName —
// which flushes the file and then its directory, and with it a rename within
// that directory. The distributed coordinator promotes a verified fenced
// worker result ("subgraphs/0003.t7") to its canonical name this way, and
// claims it only after its commit group's covering Sync.
func (s *Store) RenameVolatile(oldName, newName string) error {
	from, err := s.pathOf(oldName)
	if err != nil {
		return err
	}
	to, err := s.pathOf(newName)
	if err != nil {
		return err
	}
	if err := s.inParent(to, func() error { return os.Rename(from, to) }); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %q", store.ErrNotFound, oldName)
		}
		return fmt.Errorf("diskstore: renaming %q to %q: %w", oldName, newName, err)
	}
	return nil
}

// List returns the published file names (slash-separated, relative to the
// root), sorted. In-flight .tmp files are not listed.
func (s *Store) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if p != s.root && errors.Is(err, fs.ErrNotExist) {
			return nil // a directory a concurrent Remove emptied and took away
		}
		if err != nil || d.IsDir() || strings.HasSuffix(p, tmpSuffix) {
			return err
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diskstore: listing: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// Reset removes every file under the root — published and in-flight alike —
// keeping the root directory itself. A fresh checkpointed build uses it to
// sweep the remains of an abandoned earlier build. The root is fsynced
// after the sweep so the deletions are durable: a power loss after Reset
// returns can never resurrect stale partitions under a fresh manifest.
func (s *Store) Reset() error {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("diskstore: resetting: %w", err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(s.root, e.Name())); err != nil {
			return fmt.Errorf("diskstore: resetting: %w", err)
		}
	}
	s.syncDir(s.root)
	return nil
}

// SweepTmp removes every orphaned ".tmp" file under the root — the
// leftovers of writers killed mid-stream — returning the swept names
// (root-relative, slash-separated, .tmp suffix included), sorted. Published
// files are untouched, and so is the .tmp of any writer still open on this
// Store, so sweeping is safe while publishers run. A file that vanishes
// between the walk and the remove (its writer just published it) is
// already gone, not an error. Each affected directory is fsynced so the
// sweep is durable.
func (s *Store) SweepTmp() ([]string, error) {
	var swept []string
	dirs := make(map[string]bool)
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, tmpSuffix) {
			return err
		}
		s.mu.Lock()
		live := s.live[p] > 0
		if !live {
			err = os.Remove(p)
		}
		s.mu.Unlock()
		if live || errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		swept = append(swept, filepath.ToSlash(rel))
		dirs[filepath.Dir(p)] = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diskstore: sweeping tmp files: %w", err)
	}
	for dir := range dirs {
		s.syncDir(dir)
	}
	sort.Strings(swept)
	return swept, nil
}

// atomicFile streams into the .tmp sibling and publishes on Close.
type atomicFile struct {
	store      *Store
	f          *os.File
	tmp, final string
	volatile   bool
	done       bool
}

// Write appends to the in-flight temporary file. Errors carry the package's usual context (operation plus file name) and
// classify ENOSPC as store.ErrDiskFull, so callers never see a raw
// *os.File error with no provenance.
func (a *atomicFile) Write(p []byte) (int, error) {
	n, err := a.f.Write(p)
	if err != nil {
		err = fmt.Errorf("diskstore: writing %q: %w", a.final, classify(err))
	}
	return n, err
}

// Close publishes the file: fsync the data, close, atomically rename over
// the final name, then fsync the parent directory so the rename itself is
// durable; a volatile file skips both fsyncs. On any failure the temporary
// file is removed and the previous published content (if any) is left
// intact. Closing twice is a no-op.
func (a *atomicFile) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	// Live until the rename (or the failure cleanup) has happened.
	defer a.store.release(a.tmp)
	if !a.volatile {
		if err := a.store.fsync(a.f); err != nil {
			a.f.Close()
			os.Remove(a.tmp)
			return fmt.Errorf("diskstore: syncing %q: %w", a.final, classify(err))
		}
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.tmp)
		return fmt.Errorf("diskstore: closing %q: %w", a.final, classify(err))
	}
	if err := os.Rename(a.tmp, a.final); err != nil {
		os.Remove(a.tmp)
		return fmt.Errorf("diskstore: publishing %q: %w", a.final, err)
	}
	if !a.volatile {
		a.store.syncDir(filepath.Dir(a.final))
	}
	return nil
}

// classify maps raw filesystem errors onto the store package's typed
// sentinels. ENOSPC — whether surfaced by write(2) or by the delayed-
// allocation flush inside fsync — becomes store.ErrDiskFull, which the
// resilient pipeline treats as non-retryable so a full disk fails the
// build gracefully instead of burning the retry budget.
func classify(err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("%w: %v", store.ErrDiskFull, err)
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename is still atomic, just not yet durable.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
