package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"parahash/internal/dna"
)

// Binary subgraph format (little-endian), version 2:
//
//	magic   "PHDG"        4 bytes
//	version 2             1 byte
//	k                     1 byte, 1 to dna.MaxK
//	count                 8 bytes
//	width                 1 byte: the bytes of one edge count, 1, 2 or 4
//	vertex records        count × (key 8 or 16 + counts 8×width)
//
// A record's key is the k-mer's Lo word, preceded by its Hi word when k > 32;
// its counts are the eight edge multiplicities at the file's width, the
// smallest that holds the largest count in the file (countWidth). So at the
// paper's k and coverage a record is 16 bytes. Version 1, still read, has no
// width byte and 48-byte records: Hi 8 + Lo 8 + counts 8×4, which is
// v1Layout.
//
// This is the Step 2 output ParaHash writes partition by partition, and the
// graph its finish merges them into.

var magic = [4]byte{'P', 'H', 'D', 'G'}

const formatVersion = 2

// v1RecordBytes is the size of a version-1 record, PHDG's and PHSR's.
const v1RecordBytes = 48

// ErrBadFormat reports an unreadable subgraph stream.
var ErrBadFormat = errors.New("graph: bad subgraph format")

// ModelBytes is what the cost model charges for an n-vertex subgraph, in
// transfer, output time and residency: its version-1 serialisation. The
// model's figures stay those of the paper's fixed-width records whatever
// width a file is written at; a file's real size is what was written.
func ModelBytes(n int) int64 {
	return v1HeaderBytes + int64(n)*v1RecordBytes
}

// v1HeaderBytes is the version-1 header; a version-2 header adds the width.
const (
	v1HeaderBytes = 4 + 1 + 1 + 8
	headerBytes   = v1HeaderBytes + 1
)

// recordLayout is the shape of one vertex record: keyWords 8-byte key words
// (Hi, then Lo; only Lo when there is one), then eight counts of countBytes
// bytes each.
type recordLayout struct {
	keyWords, countBytes int
}

// v1Layout is every version-1 record's layout.
var v1Layout = recordLayout{keyWords: 2, countBytes: 4}

// layoutFor is the version-2 layout of k-mers of length k whose counts are
// all at most maxCount.
func layoutFor(k int, maxCount uint32) recordLayout {
	return recordLayout{keyWords: keyWords(k), countBytes: countWidth(maxCount)}
}

// keyWords is how many 8-byte words a version-2 record keys a k-mer of
// length k by.
func keyWords(k int) int {
	if k > 32 {
		return 2
	}
	return 1
}

// countWidth is the fewest of 1, 2 and 4 bytes that hold largest:
// monotone, so the width of a merge of files is the widest of theirs.
func countWidth(largest uint32) int {
	switch {
	case largest <= 0xff:
		return 1
	case largest <= 0xffff:
		return 2
	}
	return 4
}

// size is the record's byte size.
func (l recordLayout) size() int { return 8 * (l.keyWords + l.countBytes) }

// key decodes the k-mer of the record at rec.
func (l recordLayout) key(rec []byte) dna.Kmer {
	if l.keyWords == 1 {
		return dna.Kmer{Lo: binary.LittleEndian.Uint64(rec)}
	}
	return dna.Kmer{Hi: binary.LittleEndian.Uint64(rec), Lo: binary.LittleEndian.Uint64(rec[8:])}
}

// put encodes v into rec[:l.size()]; every count must fit the width.
func (l recordLayout) put(rec []byte, v *Vertex) {
	c := rec[8*l.keyWords : l.size()]
	if l.keyWords == 1 {
		binary.LittleEndian.PutUint64(rec, v.Kmer.Lo)
	} else {
		binary.LittleEndian.PutUint64(rec, v.Kmer.Hi)
		binary.LittleEndian.PutUint64(rec[8:], v.Kmer.Lo)
	}
	switch l.countBytes {
	case 1:
		for j, n := range v.Counts {
			c[j] = byte(n)
		}
	case 2:
		for j, n := range v.Counts {
			binary.LittleEndian.PutUint16(c[2*j:], uint16(n))
		}
	default:
		for j, n := range v.Counts {
			binary.LittleEndian.PutUint32(c[4*j:], n)
		}
	}
}

// count decodes count j of the record at rec.
func (l recordLayout) count(rec []byte, j int) uint32 {
	c := rec[8*l.keyWords+j*l.countBytes:]
	switch l.countBytes {
	case 1:
		return uint32(c[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(c))
	}
	return binary.LittleEndian.Uint32(c)
}

// get decodes rec[:l.size()] into v.
func (l recordLayout) get(v *Vertex, rec []byte) {
	v.Kmer = l.key(rec)
	for j := range v.Counts {
		v.Counts[j] = l.count(rec, j)
	}
}

// degree is Vertex.Degree of the record at rec, undecoded.
func (l recordLayout) degree(rec []byte) int64 {
	if l.countBytes == 1 {
		// The top bit of each byte lane is set exactly when the byte is not 0.
		const low, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
		x := binary.LittleEndian.Uint64(rec[8*l.keyWords:])
		return int64(bits.OnesCount64((((x & low) + low) | x) & high))
	}
	var d int64
	for j := 0; j < 8; j++ {
		if l.count(rec, j) != 0 {
			d++
		}
	}
	return d
}

// readStartVertices is the capacity ReadSubgraph starts its vertex slice
// at: 1 MiB of version-1 records, whatever the layout.
const readStartVertices = 1<<20/v1RecordBytes + 1

// putHeader encodes the version-2 header of a kind file of count records
// of layout l into head[:headerBytes].
func putHeader(head []byte, kind *fileKind, k int, count uint64, l recordLayout) {
	copy(head, kind.magic[:])
	head[4] = formatVersion
	head[5] = byte(k)
	binary.LittleEndian.PutUint64(head[6:], count)
	head[14] = byte(l.countBytes)
}

// header is a parsed PHDG header.
type header struct {
	k      int
	count  uint64 // untrusted: nothing may be sized from it before that many records are known to exist
	layout recordLayout
	bytes  int64 // the header's own size, where the records start
}

// readHeader reads and validates a header of either version with kind's
// magic — PHDG's, or PHSR's, whose headers have the same shape — refusing it
// as kind's bad error.
func readHeader(r io.Reader, kind *fileKind) (header, error) {
	bad := kind.bad
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:v1HeaderBytes]); err != nil {
		return header{}, fmt.Errorf("%w: header: %w", bad, err)
	}
	if [4]byte(head[:4]) != kind.magic {
		return header{}, fmt.Errorf("%w: bad magic", bad)
	}
	h := header{k: int(head[5]), count: binary.LittleEndian.Uint64(head[6:14])}
	if h.k < 1 || h.k > dna.MaxK {
		return header{}, fmt.Errorf("%w: k=%d outside 1..%d", bad, h.k, dna.MaxK)
	}
	if h.count > 1<<40 {
		return header{}, fmt.Errorf("%w: implausible vertex count %d", bad, h.count)
	}
	switch head[4] {
	case 1:
		h.layout, h.bytes = v1Layout, v1HeaderBytes
	case formatVersion:
		if _, err := io.ReadFull(r, head[v1HeaderBytes:]); err != nil {
			return header{}, fmt.Errorf("%w: header: %w", bad, err)
		}
		w := int(head[v1HeaderBytes])
		if w != 1 && w != 2 && w != 4 {
			return header{}, fmt.Errorf("%w: count width %d", bad, w)
		}
		h.layout, h.bytes = recordLayout{keyWords: keyWords(h.k), countBytes: w}, headerBytes
	default:
		return header{}, fmt.Errorf("%w: unsupported version %d", bad, head[4])
	}
	return h, nil
}

// Write serialises the subgraph at the narrowest layout that holds it. Its
// k must be 1 to dna.MaxK, and at k ≤ 32 no k-mer may have its high word
// set. Records go to w through a blockWriter.
func (g *Subgraph) Write(w io.Writer) error {
	var counts uint32
	var hi uint64
	for i := range g.Vertices {
		v := &g.Vertices[i]
		hi |= v.Kmer.Hi
		for _, c := range v.Counts {
			counts |= c
		}
	}
	if g.K < 1 || g.K > dna.MaxK || (hi != 0 && g.K <= 32) {
		return fmt.Errorf("graph: cannot write a k=%d subgraph: k outside 1..%d or a k-mer wider than k", g.K, dna.MaxK)
	}
	l := layoutFor(g.K, counts)
	bw := newFileWriter(w, subgraphFile, g.K, uint64(len(g.Vertices)), l)
	for i := range g.Vertices {
		rec, err := bw.next(l.size())
		if err != nil {
			return err
		}
		l.put(rec, &g.Vertices[i])
	}
	_, err := bw.finish()
	return err
}

// ReadSubgraph parses a serialised subgraph of either version. Records are
// read through a streamCursor, and the vertex slice follows the records
// that have arrived, not the header: readStartVertices to start, four times
// the size whenever it is full, never past the count. A damaged count
// cannot ask for more than a constant factor of what the stream delivered;
// an honest one costs a third of the graph in copies.
func ReadSubgraph(r io.Reader) (*Subgraph, error) {
	c, count, err := openCursor(r, subgraphFile)
	if err != nil {
		return nil, err
	}
	g := &Subgraph{K: c.k, Vertices: make([]Vertex, 0, min(count, readStartVertices))}
	more, err := c.refill()
	for ; more; more, err = c.pop() {
		n := len(g.Vertices)
		if n == cap(g.Vertices) {
			g.Vertices = append(make([]Vertex, 0, min(count, 4*uint64(n))), g.Vertices...)
		}
		g.Vertices = g.Vertices[:n+1]
		v := &g.Vertices[n]
		c.layout.get(v, c.recs)
		if err := c.kind.checkKmer(c.k, v.Kmer); err != nil {
			return nil, fmt.Errorf("%s: %w", c.at(c.index), err)
		}
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}
