package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"parahash/internal/dna"
)

// The two record files — PHDG subgraphs and graphs (serialize.go), PHSR
// spill runs (runfile.go) — are one header and one recordLayout under two
// magics, and are handled one way: a streamCursor reads records a window at
// a time, a blockWriter writes them a block at a time, and a cursorMerge
// plays the loser tree over cursors' heads. What differs is a fileKind.

// fileKind is what tells a record file apart: its magic, the errors that
// refuse it, and whether a CRC-32 footer over header and records follows
// the last record.
type fileKind struct {
	magic    [4]byte
	bad      error // a damaged header, record or footer
	unsorted error // records not in strictly ascending k-mer order
	footer   bool
}

var (
	subgraphFile = &fileKind{magic: magic, bad: ErrBadFormat, unsorted: ErrUnsorted}
	runFile      = &fileKind{magic: runMagic, bad: ErrCorruptRun, unsorted: ErrCorruptRun, footer: true}
)

// checkKmer refuses a k-mer that k's key words cannot hold: a high word set
// at k ≤ 32, which only a version-1 record has room for and which a
// version-2 file would silently drop.
func (fk *fileKind) checkKmer(k int, km dna.Kmer) error {
	if km.Hi != 0 && k <= 32 {
		return fmt.Errorf("%w: a k=%d k-mer with its high word set", fk.bad, k)
	}
	return nil
}

// streamWindowBytes sizes a cursor's read window: the most whole records
// that fit in 64 KiB, so a merge holds 64 KiB a source however large the
// sources are.
const streamWindowBytes = 1 << 16

// windowFor returns the read window of a source of count records of
// layout l that a merge shares out among ranges key ranges.
func windowFor(count int, l recordLayout, ranges int) []byte {
	return make([]byte, max(min(count, streamWindowBytes/l.size()), ranges, 1)*l.size())
}

// streamCursor reads a record file's records a window at a time: its
// reader, its record layout, the window last read, and how much of what the
// header declared is still to come. Of a file with a footer it sums every
// byte as it is read and checks the footer after the last record.
type streamCursor struct {
	kind   *fileKind
	src    int // position among a merge's sources, for error messages; -1 outside one
	k      int
	r      io.Reader
	layout recordLayout
	window []byte // nil once the cursor has ended
	// recs is the unread rest of the window; its first record is the head,
	// vertex number index of the source.
	recs   []byte
	index  uint64
	unread uint64 // records the header declared that are not yet in a window
	crc    uint32 // of the header and the windows read, when the file has a footer
}

// openCursor reads and validates the header of a kind file from r and
// returns a cursor before its first record, and the declared record count.
func openCursor(r io.Reader, kind *fileKind) (*streamCursor, uint64, error) {
	hr := r
	sum := crc32.NewIEEE()
	if kind.footer {
		hr = io.TeeReader(r, sum)
	}
	h, err := readHeader(hr, kind)
	if err != nil {
		return nil, 0, err
	}
	return &streamCursor{kind: kind, src: -1, k: h.k, r: r, layout: h.layout, unread: h.count,
		window: windowFor(int(h.count), h.layout, 1), crc: sum.Sum32()}, h.count, nil
}

// at names vertex i of the cursor's source in an error.
func (c *streamCursor) at(i uint64) string {
	if c.src < 0 {
		return fmt.Sprintf("vertex %d", i)
	}
	return fmt.Sprintf("source %d: vertex %d", c.src, i)
}

// refill reads the cursor's next window. It reports false once every record
// the header declared has been read — and the footer, if the file has one,
// checked — and on every call after that; fewer records than declared, or
// a footer that does not match, is the kind's bad error.
func (c *streamCursor) refill() (bool, error) {
	if c.unread == 0 {
		if c.window == nil {
			return false, nil
		}
		err := c.end()
		c.window = nil
		return false, err
	}
	size := c.layout.size()
	n := min(c.unread, uint64(len(c.window)/size))
	c.recs = c.window[:n*uint64(size)]
	if got, err := io.ReadFull(c.r, c.recs); err != nil {
		return false, fmt.Errorf("%w: %s: %w", c.kind.bad, c.at(c.index+uint64(got/size)), err)
	}
	if c.kind.footer {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, c.recs)
	}
	c.unread -= n
	return true, nil
}

// end checks what follows the last record: the footer, if the file has one.
func (c *streamCursor) end() error {
	if !c.kind.footer {
		return nil
	}
	foot := c.window[:runFooterBytes]
	if _, err := io.ReadFull(c.r, foot); err != nil {
		return fmt.Errorf("%w: footer: %w", c.kind.bad, err)
	}
	if binary.LittleEndian.Uint32(foot) != c.crc {
		return fmt.Errorf("%w: CRC mismatch", c.kind.bad)
	}
	return nil
}

// pop moves the cursor past its head record, reading the next window when
// the head was the last of this one. It reports false once the cursor has
// ended.
func (c *streamCursor) pop() (bool, error) {
	c.recs = c.recs[c.layout.size():]
	c.index++
	if len(c.recs) > 0 {
		return true, nil
	}
	return c.refill()
}

// head decodes the k-mer of the cursor's head record, held to checkKmer.
func (c *streamCursor) head() (dna.Kmer, error) {
	km := c.layout.key(c.recs)
	if err := c.kind.checkKmer(c.k, km); err != nil {
		return km, fmt.Errorf("%s: %w", c.at(c.index), err)
	}
	return km, nil
}

// cursorMerge is the k-way merge over cursors: a loser tree over the heads
// of those not yet ended, cur[c]'s head being t.keys[c]. Each cursor is held
// to strictly ascending k-mers as it advances; what the merge does with
// heads that are equal across cursors is its caller's.
type cursorMerge struct {
	cur []*streamCursor
	t   loserTree
}

// start reads each cursor's first window, if it has none yet, keeps those
// that hold a record, and returns the cursor whose head is least, or -1 if
// none does.
func (m *cursorMerge) start(cur []*streamCursor) (int, error) {
	for _, c := range cur {
		if len(c.recs) == 0 {
			if more, err := c.refill(); err != nil {
				return -1, err
			} else if !more {
				continue
			}
		}
		km, err := c.head()
		if err != nil {
			return -1, err
		}
		m.cur, m.t.keys = append(m.cur, c), append(m.t.keys, km)
	}
	return m.winner(), nil
}

// winner plays the whole tournament: -1 if no cursor is left.
func (m *cursorMerge) winner() int {
	if len(m.t.keys) == 0 {
		return -1
	}
	return m.t.play()
}

// get decodes cursor w's head record into v.
func (m *cursorMerge) get(w int, v *Vertex) {
	c := m.cur[w]
	c.layout.get(v, c.recs)
}

// next moves cursor w, the winner, past its head and returns the cursor
// whose head is now least, or -1 once every cursor has ended. A cursor whose
// next k-mer is not above the one it moved past is refused as unsorted.
func (m *cursorMerge) next(w int) (int, error) {
	c, key := m.cur[w], m.t.keys[w]
	more, err := c.pop()
	if err != nil {
		return -1, err
	}
	if !more {
		n := len(m.cur) - 1
		m.cur[w], m.t.keys[w] = m.cur[n], m.t.keys[n]
		m.cur, m.t.keys = m.cur[:n], m.t.keys[:n]
		return m.winner(), nil
	}
	next, err := c.head()
	if err != nil {
		return -1, err
	}
	if !key.Less(next) {
		return -1, fmt.Errorf("%w: %s", c.kind.unsorted, c.at(c.index))
	}
	m.t.keys[w] = next
	return m.t.replay(w), nil
}

// writeBlockBytes sizes the block a blockWriter encodes into: every write
// but the last carries at least 1 MiB, so a partition subgraph or a spill
// run goes out in one Write call and the final graph in a few.
const writeBlockBytes = 1<<20 + v1RecordBytes

// writeBlocks recycles the encode block: a build writes one subgraph and
// run after another, and a file-sized buffer per file is most of what it
// would otherwise allocate.
var writeBlocks = sync.Pool{New: func() any { return new([writeBlockBytes]byte) }}

// blockWriter encodes records into a block and hands the block to w
// whenever the next record would not fit: the writers behind it (a file, a
// store's atomic temp file) are unbuffered, so each Write is a syscall. With
// sum set it keeps the CRC-32 of every byte it has handed on, taken a block
// at a time.
type blockWriter struct {
	w     io.Writer
	block []byte
	fill  int
	sum   bool
	crc   uint32
}

// newFileWriter returns a blockWriter to w over a recycled block, holding
// the version-2 header of a kind file of count records of layout l; finish
// ends the file and gives the block back.
func newFileWriter(w io.Writer, kind *fileKind, k int, count uint64, l recordLayout) blockWriter {
	b := blockWriter{w: w, block: writeBlocks.Get().(*[writeBlockBytes]byte)[:], fill: headerBytes, sum: kind.footer}
	putHeader(b.block, kind, k, count, l)
	return b
}

// finish flushes the block and, for a file with a footer, writes the CRC
// of everything before it after it, which it returns. It gives a
// newFileWriter's block back; the writer is not used again.
func (b *blockWriter) finish() (uint32, error) {
	err := b.flush()
	if err == nil && b.sum {
		b.sum = false
		b.fill = runFooterBytes
		binary.LittleEndian.PutUint32(b.block, b.crc)
		err = b.flush()
	}
	writeBlocks.Put((*[writeBlockBytes]byte)(b.block))
	b.block = nil
	return b.crc, err
}

// next returns the n bytes of the block the next record is encoded into,
// flushing the block first if they do not fit.
func (b *blockWriter) next(n int) ([]byte, error) {
	if b.fill+n > len(b.block) {
		if err := b.flush(); err != nil {
			return nil, err
		}
	}
	b.fill += n
	return b.block[b.fill-n : b.fill], nil
}

// flush hands what the block holds to w.
func (b *blockWriter) flush() error {
	if b.sum {
		b.crc = crc32.Update(b.crc, crc32.IEEETable, b.block[:b.fill])
	}
	_, err := b.w.Write(b.block[:b.fill])
	b.fill = 0
	return err
}
