package graph

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"parahash/internal/dna"
)

// Binary spill-run format: a PHDG file of either version (serialize.go)
// under the magic "PHSR", then a 4-byte little-endian CRC32-IEEE footer over
// header and records. The count width is the smallest that holds the
// largest count in the run, which the writer is told up front, so at the
// paper's k and coverage a record is 16 bytes. Version 1, still read because
// a checkpoint an older build left may claim its runs, has 48-byte records
// (v1Layout).
//
// A run is one sorted, locally-aggregated slice of a partition's vertex
// multiset, written by the out-of-core Step 2 backend when the partition's
// table prediction exceeds its memory budget. Runs are read and written
// like subgraphs (records.go), read strictly streaming so the k-way merge
// holds one window per run in memory. Unlike subgraphs they carry a CRC
// footer, because a run is an intermediate artifact replayed across crashes
// — a torn or bit-flipped run must fail typed instead of corrupting the
// merged graph.

var runMagic = [4]byte{'P', 'H', 'S', 'R'}

// runFooterBytes is the CRC footer.
const runFooterBytes = 4

// ErrCorruptRun reports an unreadable or integrity-failed spill run file.
var ErrCorruptRun = errors.New("graph: corrupt spill run")

// RunWriter streams sorted, pre-aggregated vertices into the run format
// through a blockWriter that sums the blocks it flushes. The vertex count
// and the largest count are declared up front (the spill path finds both
// in a linear scan over its sorted buffer before writing) so the header is
// written once and never patched — a requirement of the append-only atomic
// store underneath.
type RunWriter struct {
	bw       blockWriter
	layout   recordLayout
	largest  uint32
	declared uint64
	written  uint64
	last     Vertex
	sum      uint32
	finished bool
}

// NewRunWriter writes the header of a run of count vertices whose counts
// may take any value, so at the 4-byte width, and returns the writer.
func NewRunWriter(w io.Writer, k int, count int64) (*RunWriter, error) {
	return NewNarrowRunWriter(w, k, count, math.MaxUint32)
}

// NewNarrowRunWriter writes the header of a run of count vertices whose
// counts are all at most largest, at the narrowest width that holds them,
// and returns the writer.
func NewNarrowRunWriter(w io.Writer, k int, count int64, largest uint32) (*RunWriter, error) {
	if k < 1 || k > dna.MaxK {
		return nil, fmt.Errorf("graph: run writer: k=%d outside 1..%d", k, dna.MaxK)
	}
	l := layoutFor(k, largest)
	return &RunWriter{bw: newFileWriter(w, runFile, k, uint64(count), l), layout: l, largest: largest, declared: uint64(count)}, nil
}

// Size is the byte size of the finished run.
func (rw *RunWriter) Size() int64 {
	return headerBytes + int64(rw.declared)*int64(rw.layout.size()) + runFooterBytes
}

// Add appends one vertex. Vertices must arrive in strictly ascending k-mer
// order — the writer enforces it, because a mis-sorted run would silently
// break the streaming merge — and fit the header: no count above the
// declared largest, no high word at k ≤ 32.
func (rw *RunWriter) Add(v Vertex) error {
	if rw.written >= rw.declared {
		return fmt.Errorf("graph: run writer: vertex %d exceeds declared count %d", rw.written, rw.declared)
	}
	if rw.written > 0 && !rw.last.Kmer.Less(v.Kmer) {
		return fmt.Errorf("graph: run writer: vertex %d out of order", rw.written)
	}
	if v.Kmer.Hi != 0 && rw.layout.keyWords == 1 {
		return fmt.Errorf("graph: run writer: vertex %d has its high word set at k ≤ 32", rw.written)
	}
	if c := slices.Max(v.Counts[:]); c > rw.largest {
		return fmt.Errorf("graph: run writer: vertex %d has count %d, above the declared %d", rw.written, c, rw.largest)
	}
	rec, err := rw.bw.next(rw.layout.size())
	if err != nil {
		return err
	}
	rw.layout.put(rec, &v)
	rw.written++
	rw.last = v
	return nil
}

// Finish validates the declared count and writes the CRC footer. It does
// not close the underlying writer.
func (rw *RunWriter) Finish() error {
	if rw.finished {
		return nil
	}
	if rw.written != rw.declared {
		return fmt.Errorf("graph: run writer: wrote %d vertices, declared %d", rw.written, rw.declared)
	}
	rw.finished = true
	var err error
	rw.sum, err = rw.bw.finish()
	return err
}

// Sum32 returns the footer CRC after Finish — the value journalled in the
// manifest so a resume can verify the run without trusting the file alone.
func (rw *RunWriter) Sum32() uint32 { return rw.sum }

// RunReader is a run file of either version opened for MergeRuns: a
// streamCursor, which checksums each window as it reads it and verifies the
// CRC footer once the last vertex has been consumed.
type RunReader struct {
	c     *streamCursor
	count uint64
}

// NewRunReader parses the run header.
func NewRunReader(r io.Reader) (*RunReader, error) {
	c, count, err := openCursor(r, runFile)
	if err != nil {
		return nil, err
	}
	return &RunReader{c: c, count: count}, nil
}

// K returns the run's k-mer length.
func (rr *RunReader) K() int { return rr.c.k }

// Count returns the run's declared vertex count.
func (rr *RunReader) Count() int64 { return int64(rr.count) }

// VerifyRun streams an entire run, checking structure, order, k and the
// CRC footer, and returns its vertex count and content checksum (the
// footer value): MergeRuns over the one run. This is the resume-time
// judgement for journalled spill runs: the returned CRC lets the caller
// cross-check the bytes on disk against the checksum recorded independently
// in the manifest. k <= 0 accepts any k-mer length (the offline Scrub pass
// knows only the directory, not the build configuration).
func VerifyRun(r io.Reader, k int) (int64, uint32, error) {
	rr, err := NewRunReader(r)
	if err != nil {
		return 0, 0, err
	}
	if k > 0 && rr.K() != k {
		return 0, 0, fmt.Errorf("%w: k=%d, want %d", ErrCorruptRun, rr.K(), k)
	}
	if err := MergeRuns([]*RunReader{rr}, func(Vertex) error { return nil }); err != nil {
		return 0, 0, err
	}
	return rr.Count(), rr.c.crc, nil
}

// MergeRuns k-way merges sorted runs into ascending vertex order on a
// cursorMerge, summing the counters of k-mers that appear in several runs,
// and hands each merged vertex to emit. Memory is O(fan-in): one read
// window per run. A run whose k-mers do not strictly ascend, or whose
// footer does not verify, is ErrCorruptRun.
func MergeRuns(runs []*RunReader, emit func(Vertex) error) error {
	cur := make([]*streamCursor, len(runs))
	for i, rr := range runs {
		cur[i], rr.c.src = rr.c, i
	}
	var m cursorMerge
	w, err := m.start(cur)
	if err != nil || w < 0 {
		return err
	}
	var acc Vertex
	m.get(w, &acc)
	for {
		if w, err = m.next(w); err != nil {
			return err
		}
		if w >= 0 && m.t.keys[w] == acc.Kmer {
			var v Vertex
			m.get(w, &v)
			acc.addCounts(&v)
			continue
		}
		if err := emit(acc); err != nil {
			return err
		}
		if w < 0 {
			return nil
		}
		m.get(w, &acc)
	}
}
