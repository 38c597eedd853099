package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"parahash/internal/dna"
)

// Binary spill-run format (little-endian), version 2:
//
//	magic   "PHSR"        4 bytes
//	version 2             1 byte
//	k                     1 byte, 1 to dna.MaxK
//	count                 8 bytes
//	width                 1 byte: the bytes of one edge count, 1, 2 or 4
//	vertex records        count × (key 8 or 16 + counts 8×width)
//	footer  CRC32-IEEE    4 bytes, over header + records
//
// Header and records are PHDG version 2's (serialize.go) under the run's own
// magic: a record's key is the k-mer's Lo word, preceded by its Hi word when
// k > 32, and the width is the smallest that holds the largest count in the
// run, which the writer is told up front. So at the paper's k and coverage a
// record is 16 bytes. Version 1, still read because a checkpoint an older
// build left may claim its runs, has no width byte and 48-byte records: the
// version-1 PHDG record, v1Layout.
//
// A run is one sorted, locally-aggregated slice of a partition's vertex
// multiset, written by the out-of-core Step 2 backend when the partition's
// table prediction exceeds its memory budget. Unlike PHDG subgraphs, runs
// are read strictly streaming (RunReader.Next) so the k-way merge holds
// one vertex per run in memory, and they carry a CRC footer because a run
// is an intermediate artifact replayed across crashes — a torn or
// bit-flipped run must fail typed instead of corrupting the merged graph.

var runMagic = [4]byte{'P', 'H', 'S', 'R'}

// runFooterBytes is the CRC footer.
const runFooterBytes = 4

// ErrCorruptRun reports an unreadable or integrity-failed spill run file.
var ErrCorruptRun = errors.New("graph: corrupt spill run")

// RunWriter streams sorted, pre-aggregated vertices into the run format.
// The vertex count and the largest count are declared up front (the spill
// path finds both in a linear scan over its sorted buffer before writing) so
// the header is written once and never patched — a requirement of the
// append-only atomic store underneath.
type RunWriter struct {
	bw       *bufio.Writer
	crc      hash.Hash32
	layout   recordLayout
	largest  uint32
	declared uint64
	written  uint64
	last     Vertex
	sum      uint32
	finished bool
	// rec is where Add encodes: a local array would escape into the
	// writer underneath, one allocation per vertex.
	rec [v1RecordBytes]byte
}

// runBlockBytes sizes the block a RunWriter writes through and a RunReader
// reads through.
const runBlockBytes = 1 << 15

// runWriteBlocks and runReadBlocks recycle those blocks: a spilled partition
// writes and re-reads a dozen runs, each finished with its block before the
// next begins. A block goes back when its run completed — Finish, or the
// io.EOF that follows a verified footer — and is left to the collector
// otherwise.
var (
	runWriteBlocks = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, runBlockBytes) }}
	runReadBlocks  = sync.Pool{New: func() any { return new([runBlockBytes]byte) }}
)

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
	rw := &RunWriter{crc: crc32.NewIEEE(), layout: l, largest: largest, declared: uint64(count)}
	rw.bw = runWriteBlocks.Get().(*bufio.Writer)
	rw.bw.Reset(io.MultiWriter(w, rw.crc))
	// A run's header is the PHDG version-2 header under the run magic.
	var head [headerBytes]byte
	putHeader(head[:], k, uint64(count), l)
	copy(head[:4], runMagic[:])
	if _, err := rw.bw.Write(head[:]); err != nil {
		return nil, err
	}
	return rw, nil
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
	rw.layout.put(rw.rec[:], &v)
	if _, err := rw.bw.Write(rw.rec[:rw.layout.size()]); err != nil {
		return err
	}
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
	if err := rw.bw.Flush(); err != nil {
		return err
	}
	rw.sum = rw.crc.Sum32()
	var foot [runFooterBytes]byte
	binary.LittleEndian.PutUint32(foot[:], rw.sum)
	if _, err := rw.bw.Write(foot[:]); err != nil {
		return err
	}
	rw.finished = true
	err := rw.bw.Flush()
	rw.bw.Reset(nil)
	runWriteBlocks.Put(rw.bw)
	rw.bw = nil
	return err
}

// Sum32 returns the footer CRC after Finish — the value journalled in the
// manifest so a resume can verify the run without trusting the file alone.
func (rw *RunWriter) Sum32() uint32 { return rw.sum }

// RunReader streams a run file of either version one vertex at a time,
// verifying the CRC footer when the last vertex has been consumed.
type RunReader struct {
	r io.Reader
	// buf[pos:end] is read but not yet consumed. The checksum is taken over
	// each block as it is read, not record by record: 16-byte writes would
	// never reach crc32's vectorised kernel.
	buf      *[runBlockBytes]byte
	pos, end int
	crc      uint32
	// unsummed counts the record bytes still to be read and checksummed;
	// whatever follows them is the footer.
	unsummed uint64
	k        int
	layout   recordLayout
	count    uint64
	read     uint64
	done     bool
}

// NewRunReader parses the run header.
func NewRunReader(r io.Reader) (*RunReader, error) {
	sum := crc32.NewIEEE()
	h, err := readHeaderAs(io.TeeReader(r, sum), runMagic, ErrCorruptRun)
	if err != nil {
		return nil, err
	}
	rr := &RunReader{r: r, crc: sum.Sum32(), k: h.k, layout: h.layout, count: h.count}
	rr.unsummed = rr.count * uint64(h.layout.size())
	rr.buf = runReadBlocks.Get().(*[runBlockBytes]byte)
	return rr, nil
}

// K returns the run's k-mer length.
func (rr *RunReader) K() int { return rr.k }

// Count returns the run's declared vertex count.
func (rr *RunReader) Count() int64 { return int64(rr.count) }

// take returns the next n unconsumed bytes, reading another block when
// fewer are buffered. The slice is valid until the next call.
func (rr *RunReader) take(n int) ([]byte, error) {
	if rr.end-rr.pos < n {
		rr.end = copy(rr.buf[:], rr.buf[rr.pos:rr.end])
		rr.pos = 0
		m, err := io.ReadAtLeast(rr.r, rr.buf[rr.end:], n-rr.end)
		fresh := rr.buf[rr.end : rr.end+m]
		if uint64(len(fresh)) > rr.unsummed {
			fresh = fresh[:rr.unsummed]
		}
		rr.crc = crc32.Update(rr.crc, crc32.IEEETable, fresh)
		rr.unsummed -= uint64(len(fresh))
		rr.end += m
		if err != nil {
			return nil, err
		}
	}
	b := rr.buf[rr.pos : rr.pos+n]
	rr.pos += n
	return b, nil
}

// Next returns the next vertex, or io.EOF after the last one — at which
// point the footer CRC has been verified, so an io.EOF return certifies
// the whole run's integrity.
func (rr *RunReader) Next() (Vertex, error) {
	if rr.done {
		return Vertex{}, io.EOF
	}
	if rr.read == rr.count {
		foot, err := rr.take(runFooterBytes)
		if err != nil {
			return Vertex{}, fmt.Errorf("%w: footer: %v", ErrCorruptRun, err)
		}
		if got := binary.LittleEndian.Uint32(foot); got != rr.crc {
			return Vertex{}, fmt.Errorf("%w: CRC mismatch", ErrCorruptRun)
		}
		rr.done = true
		runReadBlocks.Put(rr.buf)
		rr.buf = nil
		return Vertex{}, io.EOF
	}
	rec, err := rr.take(rr.layout.size())
	if err != nil {
		return Vertex{}, fmt.Errorf("%w: vertex %d: %v", ErrCorruptRun, rr.read, err)
	}
	var v Vertex
	rr.layout.get(&v, rec)
	rr.read++
	return v, nil
}

// VerifyRun streams an entire run, checking structure, order, k and the
// CRC footer, and returns its vertex count and content checksum (the
// footer value). This is the resume-time judgement for journalled spill
// runs: the returned CRC lets the caller cross-check the bytes on disk
// against the checksum recorded independently in the manifest. k <= 0
// accepts any k-mer length (the offline Scrub pass knows only the
// directory, not the build configuration).
func VerifyRun(r io.Reader, k int) (int64, uint32, error) {
	rr, err := NewRunReader(r)
	if err != nil {
		return 0, 0, err
	}
	if k > 0 && rr.K() != k {
		return 0, 0, fmt.Errorf("%w: k=%d, want %d", ErrCorruptRun, rr.K(), k)
	}
	var prev Vertex
	for i := int64(0); ; i++ {
		v, err := rr.Next()
		if err == io.EOF {
			return rr.Count(), rr.crc, nil
		}
		if err != nil {
			return 0, 0, err
		}
		if i > 0 && !prev.Kmer.Less(v.Kmer) {
			return 0, 0, fmt.Errorf("%w: vertex %d out of order", ErrCorruptRun, i)
		}
		prev = v
	}
}

// MergeRuns k-way merges sorted runs into ascending vertex order, summing
// the counters of k-mers that appear in several runs, and hands each
// merged vertex to emit. Memory is O(fan-in): one head vertex per run.
// The fan-in is expected to be small (the spill path caps it), so the
// min-scan is linear rather than a heap.
func MergeRuns(runs []*RunReader, emit func(Vertex) error) error {
	heads := make([]Vertex, len(runs))
	live := make([]bool, len(runs))
	advance := func(i int) error {
		v, err := runs[i].Next()
		if err == io.EOF {
			live[i] = false
			return nil
		}
		if err != nil {
			return err
		}
		heads[i], live[i] = v, true
		return nil
	}
	for i := range runs {
		if err := advance(i); err != nil {
			return err
		}
	}
	for {
		best := -1
		for i, ok := range live {
			if ok && (best < 0 || heads[i].Kmer.Less(heads[best].Kmer)) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		acc := heads[best]
		if err := advance(best); err != nil {
			return err
		}
		// Absorb the same k-mer from every other run. Within a run k-mers
		// are strictly ascending (RunWriter enforces it), so one pass over
		// the heads collects every duplicate.
		for i, ok := range live {
			if !ok || i == best || heads[i].Kmer != acc.Kmer {
				continue
			}
			acc.addCounts(&heads[i])
			if err := advance(i); err != nil {
				return err
			}
		}
		if err := emit(acc); err != nil {
			return err
		}
	}
}
