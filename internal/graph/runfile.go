package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sync"

	"parahash/internal/dna"
)

// Binary spill-run format (little-endian):
//
//	magic   "PHSR"        4 bytes
//	version 1             1 byte
//	k                     1 byte
//	count                 8 bytes
//	vertex records        count × 48 bytes (the version-1 PHDG record, v1Layout)
//	footer  CRC32-IEEE    4 bytes, over header + records
//
// A run is one sorted, locally-aggregated slice of a partition's vertex
// multiset, written by the out-of-core Step 2 backend when the partition's
// table prediction exceeds its memory budget. Unlike PHDG subgraphs, runs
// are read strictly streaming (RunReader.Next) so the k-way merge holds
// one vertex per run in memory, and they carry a CRC footer because a run
// is an intermediate artifact replayed across crashes — a torn or
// bit-flipped run must fail typed instead of corrupting the merged graph.

var runMagic = [4]byte{'P', 'H', 'S', 'R'}

const runFormatVersion = 1

// runHeaderBytes is the fixed header size, runFooterBytes the CRC footer.
const (
	runHeaderBytes = 4 + 1 + 1 + 8
	runFooterBytes = 4
)

// ErrCorruptRun reports an unreadable or integrity-failed spill run file.
var ErrCorruptRun = errors.New("graph: corrupt spill run")

// RunSerializedSize returns the exact byte size of a run holding n vertices.
func RunSerializedSize(n int) int64 {
	return runHeaderBytes + int64(n)*v1RecordBytes + runFooterBytes
}

// RunWriter streams sorted, pre-aggregated vertices into the run format.
// The vertex count is declared up front (the spill path counts distinct
// k-mers in a linear scan over its sorted buffer before writing) so the
// header is written once and never patched — a requirement of the
// append-only atomic store underneath.
type RunWriter struct {
	bw       *bufio.Writer
	crc      hash.Hash32
	declared uint64
	written  uint64
	last     Vertex
	sum      uint32
	finished bool
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

// NewRunWriter writes the run header for a declared vertex count and
// returns the writer.
func NewRunWriter(w io.Writer, k int, count int64) (*RunWriter, error) {
	rw := &RunWriter{crc: crc32.NewIEEE(), declared: uint64(count)}
	rw.bw = runWriteBlocks.Get().(*bufio.Writer)
	rw.bw.Reset(io.MultiWriter(w, rw.crc))
	var head [runHeaderBytes]byte
	copy(head[:4], runMagic[:])
	head[4] = runFormatVersion
	head[5] = byte(k)
	binary.LittleEndian.PutUint64(head[6:], uint64(count))
	if _, err := rw.bw.Write(head[:]); err != nil {
		return nil, err
	}
	return rw, nil
}

// Add appends one vertex. Vertices must arrive in strictly ascending k-mer
// order — the writer enforces it, because a mis-sorted run would silently
// break the streaming merge.
func (rw *RunWriter) Add(v Vertex) error {
	if rw.written >= rw.declared {
		return fmt.Errorf("graph: run writer: vertex %d exceeds declared count %d", rw.written, rw.declared)
	}
	if rw.written > 0 && !rw.last.Kmer.Less(v.Kmer) {
		return fmt.Errorf("graph: run writer: vertex %d out of order", rw.written)
	}
	var buf [v1RecordBytes]byte
	v1Layout.put(buf[:], &v)
	if _, err := rw.bw.Write(buf[:]); err != nil {
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

// RunReader streams a run file one vertex at a time, verifying the CRC
// footer when the last vertex has been consumed.
type RunReader struct {
	r io.Reader
	// buf[pos:end] is read but not yet consumed. The checksum is taken over
	// each block as it is read, not record by record: 48-byte writes would
	// never reach crc32's vectorised kernel.
	buf      *[runBlockBytes]byte
	pos, end int
	crc      uint32
	// unsummed counts the record bytes still to be read and checksummed;
	// whatever follows them is the footer.
	unsummed uint64
	k        int
	count    uint64
	read     uint64
	done     bool
}

// NewRunReader parses the run header.
func NewRunReader(r io.Reader) (*RunReader, error) {
	rr := &RunReader{r: r}
	var head [runHeaderBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorruptRun, err)
	}
	if [4]byte(head[:4]) != runMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptRun)
	}
	if head[4] != runFormatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptRun, head[4])
	}
	rr.k = int(head[5])
	if rr.k < 1 || rr.k > dna.MaxK {
		return nil, fmt.Errorf("%w: k=%d outside 1..%d", ErrCorruptRun, rr.k, dna.MaxK)
	}
	rr.count = binary.LittleEndian.Uint64(head[6:])
	if rr.count > 1<<40 {
		return nil, fmt.Errorf("%w: implausible vertex count %d", ErrCorruptRun, rr.count)
	}
	rr.crc = crc32.ChecksumIEEE(head[:])
	rr.unsummed = rr.count * v1RecordBytes
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
	rec, err := rr.take(v1RecordBytes)
	if err != nil {
		return Vertex{}, fmt.Errorf("%w: vertex %d: %v", ErrCorruptRun, rr.read, err)
	}
	var v Vertex
	v1Layout.get(&v, rec)
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
