// Package atomicfile publishes state files — the build manifest, the job
// journal, per-job results — so that a crash at any point leaves the previous
// file or the complete new one, and a nil return means the new one is durable.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// WriteDurable's filesystem calls; tests replace one to fail that step.
var (
	createFile = os.Create
	syncFile   = (*os.File).Sync
	closeFile  = (*os.File).Close
	renameFile = os.Rename
)

// WriteDurable replaces path with what write produces: the bytes go to
// "<path>.tmp", are fsync'd and renamed over path, then the parent directory
// is fsync'd so the rename is durable too (best effort: some filesystems
// refuse a directory fsync, and the rename is atomic regardless). On any
// failure the temporary file is removed and path keeps its previous content.
func WriteDurable(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := createFile(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = syncFile(f)
	}
	if cerr := closeFile(f); err == nil {
		err = cerr
	}
	if err == nil {
		err = renameFile(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
