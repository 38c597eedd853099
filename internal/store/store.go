// Package store defines the PartitionStore interface: the contract between
// the ParaHash pipeline and the byte stores its partitions live in. Two
// implementations exist — iosim.Store, the in-memory store with virtual-time
// byte accounting used for deterministic experiments, and diskstore.Store,
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

// PartitionStore is a named collection of partition files with byte
// accounting. Names are slash-separated relative paths ("superkmers/0004").
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
//     snapshot. Bytes are counted as read when they are served, and the
//     caller must Close the reader on every path (on disk it is a
//     descriptor, and a caller holding many at once — the finish stage holds
//     one per partition — is bounded by the process's open-file limit).
//   - Size, Open and OpenStream return an error wrapping ErrNotFound for
//     absent names.
//   - Remove deletes a file if present; removing an absent file is not an
//     error.
//   - List returns the published file names, sorted; in-flight (unpublished)
//     writes are not listed.
//   - BytesRead / BytesWritten are cumulative transfer counters for IO
//     accounting; TotalBytes is the current sum of published file sizes.
type PartitionStore interface {
	Create(name string) (io.WriteCloser, error)
	CreateVolatile(name string) (io.WriteCloser, error)
	Sync(names ...string) error
	Open(name string) (io.Reader, error)
	OpenStream(name string) (io.ReadCloser, error)
	Size(name string) (int64, error)
	Remove(name string) error
	List() ([]string, error)
	TotalBytes() int64
	BytesRead() int64
	BytesWritten() int64
}
