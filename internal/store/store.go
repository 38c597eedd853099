// Package store defines the PartitionStore interface: the contract between
// the ParaHash pipeline and the byte stores its partitions live in. Two
// implementations exist — iosim.Store, the in-memory store a build without a
// checkpoint directory runs against, and diskstore.Store,
// a real directory with crash-safe atomic publication used for durable
// checkpointed builds. The pipeline (internal/core, internal/pipeline) is
// written against this interface only, so any build can be pointed at either
// medium without code changes.
package store

import (
	"errors"
	"io"
)

// ErrNotFound reports an absent file. It is deliberately a distinct sentinel
// from injected or real IO faults: a missing file is deterministic, so the
// resilient pipeline treats it as non-retryable.
var ErrNotFound = errors.New("store: no such file")

// ErrDiskFull reports a write that failed because the medium is out of
// space (ENOSPC on a real filesystem, an exhausted capacity budget on a
// simulated store). Like ErrNotFound it is deterministic — retrying the
// write against a full disk only burns the attempt budget — so the
// resilient pipeline classifies it as non-retryable and the build fails
// fast with its manifest (and every already-published partition) intact,
// ready for a -resume once space is reclaimed.
var ErrDiskFull = errors.New("store: disk full")

// PartitionStore is a named collection of partition files. Names are slash-separated relative paths ("superkmers/0004").
// All methods must be safe for concurrent use.
//
// Contract, shared by every implementation (the conformance suite in
// storetest enforces it):
//
//   - Create starts a new version of the name. The written bytes become
//     observable — atomically replacing any previous content — only when
//     Close succeeds; until then Open/Size/List serve the prior version (or
//     ErrNotFound). Durable implementations publish on Close by writing a
//     temporary sibling, fsyncing and renaming, so a crash mid-write never
//     leaves a partial file under the final name.
//   - CreateVolatile is Create without the durability: Close publishes the
//     complete file atomically — readers see the previous version or the new
//     one, never a prefix — but until a Sync names it a crash may lose,
//     empty or truncate it. It is for files that can be rebuilt from durable
//     inputs and that no journal names yet (spill runs, merge intermediates),
//     which must not each pay a flush.
//   - Sync makes the named published files durable: each file is flushed,
//     then each parent directory once. A claim journalled after Sync returns
//     names only bytes a crash cannot take back; a file no claim will ever
//     name is never synced. An absent name is an error wrapping ErrNotFound;
//     a medium that runs out of space while flushing reports ErrDiskFull.
//   - Open returns a reader over a snapshot of the file's content taken at
//     open time: concurrent writers never disturb an open reader, and a
//     fault layer over the store (faultinject.Store's FailReadsNTimes)
//     charges its fault budget exactly once per Open — never per Read call
//     on the returned reader.
//   - OpenStream is Open for a reader that wants the file a piece at a time:
//     the same snapshot of the version published at open time, the same
//     once-per-open charge of a scripted read fault, but nothing file-sized
//     is held — on disk an open descriptor on the published inode is the
//     snapshot. The caller must Close the reader on every path (on disk it is a
//     descriptor, and a caller holding many at once — the finish stage holds
//     one per partition — is bounded by the process's open-file limit). The
//     stream also reads at any offset (ReadAt, safe to call from several
//     goroutines at once) and reports the size of the
//     version it opened (Size), so one open serves readers of several parts
//     of the file.
//   - Size, Open and OpenStream return an error wrapping ErrNotFound for
//     absent names.
//   - Remove deletes the named files that are present; removing an absent
//     file is not an error. Durable implementations make the unlinks durable
//     before returning, with one directory flush per distinct directory
//     however many names share it.
//   - List returns the published file names, sorted; in-flight (unpublished)
//     writes are not listed.
type PartitionStore interface {
	Create(name string) (io.WriteCloser, error)
	CreateVolatile(name string) (io.WriteCloser, error)
	Sync(names ...string) error
	Open(name string) (io.Reader, error)
	OpenStream(name string) (Stream, error)
	Size(name string) (int64, error)
	Remove(names ...string) error
	List() ([]string, error)
}

// Stream is what OpenStream returns: the version of a file published at open
// time, read in order (Read) or at any offset (ReadAt), and its size.
type Stream interface {
	io.ReadCloser
	io.ReaderAt
	Size() int64
}
