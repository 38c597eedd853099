package graph

import (
	"encoding/binary"
	"fmt"
	"io"

	"parahash/internal/dna"
)

// streamWindowRecords sizes a MergeStreams source's read window: the most
// records that fit in 64 KiB, so the merge holds 64 KiB a source however
// large the sources are.
const streamWindowRecords = 1 << 16 / VertexRecordBytes

// streamCursor is one MergeStreams source: its reader, the window last read
// from it, and how much of what its header declared is still to come.
type streamCursor struct {
	src    int // position among the sources, for error messages
	r      io.Reader
	window []byte
	// recs is the unread rest of the window; recs[:VertexRecordBytes] is the
	// head, vertex number index of the source.
	recs   []byte
	index  uint64
	unread uint64 // records the header declared that are not yet in a window
}

// refill reads the source's next window. It reports false when the source
// has delivered exactly the records its header declared and then ended;
// fewer records, or a byte after the last one, is ErrBadFormat.
func (c *streamCursor) refill() (bool, error) {
	if c.unread == 0 {
		if n, err := io.ReadFull(c.r, c.window[:1]); n > 0 {
			return false, fmt.Errorf("%w: source %d: data after its %d vertices", ErrBadFormat, c.src, c.index)
		} else if err != io.EOF {
			return false, fmt.Errorf("%w: source %d: after vertex %d: %w", ErrBadFormat, c.src, c.index, err)
		}
		return false, nil
	}
	n := min(c.unread, uint64(len(c.window)/VertexRecordBytes))
	c.recs = c.window[:n*VertexRecordBytes]
	if got, err := io.ReadFull(c.r, c.recs); err != nil {
		return false, fmt.Errorf("%w: source %d: vertex %d: %w", ErrBadFormat, c.src, c.index+uint64(got/VertexRecordBytes), err)
	}
	c.unread -= n
	return true, nil
}

// recordDegree is Vertex.Degree of the record at rec, undecoded.
func recordDegree(rec []byte) int64 {
	_ = rec[VertexRecordBytes-1]
	var d int64
	for j := 16; j < VertexRecordBytes; j += 4 {
		if binary.LittleEndian.Uint32(rec[j:]) != 0 {
			d++
		}
	}
	return d
}

// MergeStreams k-way merges serialised subgraphs — what Subgraph.Write
// produced: a header, then records in strictly ascending k-mer order — from
// srcs straight into one serialised subgraph on w, and returns the vertices
// and distinct edges (NumVertices and NumEdges of the result) it wrote. It is
// Merge for graphs that are on disk already and need not fit in memory: one
// window of at most 64 KiB per source and one write block are resident, and
// records are copied, never decoded. The output's header carries the sum of
// the sources' declared counts, so it is written first and never patched.
//
// Every source is held to its header: magic, version and k (ErrBadFormat),
// strictly ascending k-mers (ErrUnsorted, naming the source and vertex), and
// exactly the declared number of records with nothing after them
// (ErrBadFormat). Unlike Merge, a k-mer that appears in two sources is an
// error too (ErrUnsorted): MSP partitions are disjoint, so in the published
// files of a build a shared k-mer can only be damage, and summing it would
// hide that. A failed read surfaces wrapped in ErrBadFormat beside its cause.
// On any error w holds a prefix of a graph that the caller must discard.
func MergeStreams(k int, srcs []io.Reader, w io.Writer) (vertices, edges int64, err error) {
	var t loserTree
	cur := make([]streamCursor, 0, len(srcs))
	var total uint64
	for i, r := range srcs {
		var head [headerBytes]byte
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return 0, 0, fmt.Errorf("%w: source %d: header: %w", ErrBadFormat, i, err)
		}
		sk, count, err := parseHeader(&head)
		if err != nil {
			return 0, 0, fmt.Errorf("source %d: %w", i, err)
		}
		if sk != k {
			return 0, 0, fmt.Errorf("%w: source %d: k=%d, want %d", ErrBadFormat, i, sk, k)
		}
		total += count
		c := streamCursor{src: i, r: r, unread: count,
			window: make([]byte, max(min(count, streamWindowRecords), 1)*VertexRecordBytes)}
		more, err := c.refill()
		if err != nil {
			return 0, 0, err
		}
		if more {
			cur = append(cur, c)
			t.keys = append(t.keys, recordKmer(c.recs))
		}
	}

	block := writeBlocks.Get().(*[writeBlockBytes]byte)
	defer writeBlocks.Put(block)
	putHeader(block[:], k, total)
	fill := headerBytes
	var last dna.Kmer // the k-mer last written, from source lastSrc
	var lastSrc int
	for len(t.keys) > 0 {
		win := t.play()
		for {
			c, key := &cur[win], t.keys[win]
			// Heads come out of the tournament in ascending order as long as
			// every source ascends, which is checked as each one advances: a
			// head that is not above the last one written is equal to it.
			if vertices > 0 && !last.Less(key) {
				return vertices, edges, fmt.Errorf("%w: k-mer %s is vertex %d of source %d and also in source %d",
					ErrUnsorted, key.String(k), c.index, c.src, lastSrc)
			}
			if fill+VertexRecordBytes > len(block) {
				if _, err := w.Write(block[:fill]); err != nil {
					return vertices, edges, err
				}
				fill = 0
			}
			fill += copy(block[fill:], c.recs[:VertexRecordBytes])
			edges += recordDegree(c.recs)
			vertices++
			last, lastSrc = key, c.src

			c.recs = c.recs[VertexRecordBytes:]
			c.index++
			if len(c.recs) == 0 {
				more, err := c.refill()
				if err != nil {
					return vertices, edges, err
				}
				if !more {
					n := len(cur) - 1
					cur[win], t.keys[win] = cur[n], t.keys[n]
					cur, t.keys = cur[:n], t.keys[:n]
					break
				}
			}
			next := recordKmer(c.recs)
			if !key.Less(next) {
				return vertices, edges, fmt.Errorf("%w: source %d: vertex %d", ErrUnsorted, c.src, c.index)
			}
			t.keys[win] = next
			win = t.replay(win)
		}
	}
	_, err = w.Write(block[:fill])
	return vertices, edges, err
}
