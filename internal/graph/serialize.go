package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Binary subgraph format (little-endian):
//
//	magic   "PHDG"        4 bytes
//	version 1             1 byte
//	k                     1 byte
//	count                 8 bytes
//	vertex records        count × (Hi 8 + Lo 8 + counts 8×4) = 48 bytes each
//
// This is the Step 2 output ParaHash writes partition by partition; the
// fixed record size makes the output pipeline's IO accounting exact.

var magic = [4]byte{'P', 'H', 'D', 'G'}

const formatVersion = 1

// VertexRecordBytes is the serialized size of one vertex.
const VertexRecordBytes = 48

// ErrBadFormat reports an unreadable subgraph stream.
var ErrBadFormat = errors.New("graph: bad subgraph format")

// SerializedSize returns the exact byte size of a subgraph's serialization.
func SerializedSize(numVertices int) int64 {
	return headerBytes + int64(numVertices)*VertexRecordBytes
}

// headerBytes is the fixed PHDG header size.
const headerBytes = 4 + 1 + 1 + 8

// writeBlockRecords sizes the encode block of Write and MergeStreams: just
// over 1 MiB of records, so a partition subgraph goes out in one Write call
// and the final graph in a few dozen.
const writeBlockRecords = 1<<20/VertexRecordBytes + 1

// writeBlockBytes is the block's size: the header and the records.
const writeBlockBytes = headerBytes + writeBlockRecords*VertexRecordBytes

// writeBlocks recycles the encode block: a build writes one subgraph after
// another, and a graph-sized buffer per file is most of what it would
// otherwise allocate.
var writeBlocks = sync.Pool{New: func() any { return new([writeBlockBytes]byte) }}

// putHeader encodes the PHDG header of a count-vertex stream into
// head[:headerBytes].
func putHeader(head []byte, k int, count uint64) {
	copy(head, magic[:])
	head[4] = formatVersion
	head[5] = byte(k)
	binary.LittleEndian.PutUint64(head[6:], count)
}

// putVertex encodes v into rec[:VertexRecordBytes].
func putVertex(rec []byte, v *Vertex) {
	_ = rec[VertexRecordBytes-1]
	binary.LittleEndian.PutUint64(rec[0:], v.Kmer.Hi)
	binary.LittleEndian.PutUint64(rec[8:], v.Kmer.Lo)
	for j, c := range v.Counts {
		binary.LittleEndian.PutUint32(rec[16+4*j:], c)
	}
}

// getVertex decodes rec[:VertexRecordBytes] into v.
func getVertex(v *Vertex, rec []byte) {
	_ = rec[VertexRecordBytes-1]
	v.Kmer.Hi = binary.LittleEndian.Uint64(rec[0:])
	v.Kmer.Lo = binary.LittleEndian.Uint64(rec[8:])
	for j := range v.Counts {
		v.Counts[j] = binary.LittleEndian.Uint32(rec[16+4*j:])
	}
}

// Write serialises the subgraph. Records are encoded into one recycled
// block and handed to w a block at a time: the writers behind it (a file, a
// store's atomic temp file) are unbuffered, so each call is a syscall.
func (g *Subgraph) Write(w io.Writer) error {
	buf := writeBlocks.Get().(*[writeBlockBytes]byte)
	defer writeBlocks.Put(buf)
	putHeader(buf[:], g.K, uint64(len(g.Vertices)))
	fill := headerBytes
	for i := range g.Vertices {
		if fill+VertexRecordBytes > len(buf) {
			if _, err := w.Write(buf[:fill]); err != nil {
				return err
			}
			fill = 0
		}
		putVertex(buf[fill:], &g.Vertices[i])
		fill += VertexRecordBytes
	}
	_, err := w.Write(buf[:fill])
	return err
}

// parseHeader validates a PHDG header and returns its k and vertex count.
// The count is untrusted: nothing may be sized from it before that many
// records are known to exist.
func parseHeader(head *[headerBytes]byte) (k int, count uint64, err error) {
	if [4]byte(head[:4]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if head[4] != formatVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, head[4])
	}
	count = binary.LittleEndian.Uint64(head[6:14])
	if count > 1<<40 {
		return 0, 0, fmt.Errorf("%w: implausible vertex count %d", ErrBadFormat, count)
	}
	return int(head[5]), count, nil
}

// ReadSubgraph parses a serialised subgraph.
func ReadSubgraph(r io.Reader) (*Subgraph, error) {
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	k, count, err := parseHeader(&head)
	if err != nil {
		return nil, err
	}
	// Records are read a write block at a time, and the vertex slice follows
	// the blocks that have arrived, not the header: one block to start, four
	// times the size whenever it is full, never past the count. A damaged
	// count cannot ask for more than a constant factor of what the stream
	// delivered; an honest one costs a third of the graph in copies.
	block := int(min(count, writeBlockRecords))
	g := &Subgraph{K: k, Vertices: make([]Vertex, 0, block)}
	buf := make([]byte, block*VertexRecordBytes)
	for uint64(len(g.Vertices)) < count {
		done := len(g.Vertices)
		if done == cap(g.Vertices) {
			g.Vertices = append(make([]Vertex, 0, min(count, 4*uint64(done))), g.Vertices...)
		}
		n := int(min(count-uint64(done), writeBlockRecords))
		got, err := io.ReadFull(r, buf[:n*VertexRecordBytes])
		if err != nil {
			return nil, fmt.Errorf("%w: vertex %d: %v", ErrBadFormat, done+got/VertexRecordBytes, err)
		}
		g.Vertices = g.Vertices[:done+n]
		for i := 0; i < n; i++ {
			getVertex(&g.Vertices[done+i], buf[i*VertexRecordBytes:])
		}
	}
	return g, nil
}
