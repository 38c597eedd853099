package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"parahash/internal/dna"
)

// pageRecords is the lookup granularity of a File: the most vertex records
// that fit in 4 KiB (85 × 48 = 4080 bytes), so the read that ends a lookup
// is about one page of the file.
const pageRecords = 4096 / VertexRecordBytes

const pageBytes = pageRecords * VertexRecordBytes

// checkBlockPages sizes CheckSorted's read buffer: whole pages, just under
// 1 MiB in all, so every page's first record starts a known offset into a
// block however the ranges of a split check share it out.
const checkBlockPages = 1 << 20 / pageBytes

// File answers k-mer lookups from a serialised subgraph in place: the
// published file — header plus fixed-size records in strictly ascending
// k-mer order — is its own index, so a lookup reads one page of it and a
// graph-sized decoded copy is never resident. Lookup may be called from
// many goroutines at once if the ReaderAt allows it (an *os.File does);
// CheckSorted must have returned before they start.
type File struct {
	r     io.ReaderAt
	k     int
	count int
	// pageKeys holds the first k-mer of every page once CheckSorted has
	// accepted the file (16 bytes per 4080 of file); nil until then.
	pageKeys []dna.Kmer
}

// OpenFile validates the header of the size-byte subgraph serialisation
// behind r, and that size is exactly what the header's vertex count
// implies — a truncated or padded file is ErrBadFormat here, before
// anything is sized from that count.
func OpenFile(r io.ReaderAt, size int64) (*File, error) {
	var head [headerBytes]byte
	if size < headerBytes {
		return nil, fmt.Errorf("%w: header: %d bytes", ErrBadFormat, size)
	}
	if err := readFullAt(r, head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	k, count, err := parseHeader(&head)
	if err != nil {
		return nil, err
	}
	body := uint64(size - headerBytes)
	if body%VertexRecordBytes != 0 || body/VertexRecordBytes != count {
		return nil, fmt.Errorf("%w: %d bytes for %d vertices", ErrBadFormat, size, count)
	}
	return &File{r: r, k: k, count: int(count)}, nil
}

// K returns the k-mer length recorded in the header.
func (f *File) K() int { return f.k }

// NumVertices returns the vertex count.
func (f *File) NumVertices() int { return f.count }

// pages returns the number of pages, the last possibly short.
func (f *File) pages() int { return (f.count + pageRecords - 1) / pageRecords }

// readFullAt fills p from offset off; ReadAt may return io.EOF alongside a
// complete read.
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	if n, err := r.ReadAt(p, off); n < len(p) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// recordKmer decodes the k-mer of the record at rec.
func recordKmer(rec []byte) dna.Kmer {
	_ = rec[15]
	return dna.Kmer{Hi: binary.LittleEndian.Uint64(rec[0:]), Lo: binary.LittleEndian.Uint64(rec[8:])}
}

// readKmer reads the k-mer of vertex i.
func (f *File) readKmer(i int) (dna.Kmer, error) {
	var key [16]byte
	if err := readFullAt(f.r, key[:], SerializedSize(i)); err != nil {
		return dna.Kmer{}, fmt.Errorf("%w: vertex %d: %v", ErrBadFormat, i, err)
	}
	return recordKmer(key[:]), nil
}

// pageBufs recycles the page buffer of Lookup and lowerBound: handed to
// ReadAt it would otherwise be a 4 KiB heap allocation per lookup.
var pageBufs = sync.Pool{New: func() any { return new([pageBytes]byte) }}

// Lookup finds a vertex by canonical k-mer, like Subgraph.Lookup. On a
// checked File the page is found in memory and the lookup costs one ReadAt;
// on an unchecked one the pages' first records are binary-searched through
// ReadAt first (⌈log2 pages⌉ more). A failed read is ErrBadFormat. On a
// file that is not sorted the answer is unspecified, as it is for
// Subgraph.Lookup.
func (f *File) Lookup(km dna.Kmer) (Vertex, bool, error) {
	buf := pageBufs.Get().(*[pageBytes]byte)
	defer pageBufs.Put(buf)
	_, recs, i, err := f.search(km, buf)
	if err != nil || i == len(recs)/VertexRecordBytes || recordKmer(recs[i*VertexRecordBytes:]) != km {
		return Vertex{}, false, err
	}
	var v Vertex
	getVertex(&v, recs[i*VertexRecordBytes:])
	return v, true, nil
}

// lowerBound returns the index of the first vertex whose k-mer is not below
// km — NumVertices if there is none — at Lookup's cost. On a file that is
// not sorted the index is unspecified.
func (f *File) lowerBound(km dna.Kmer) (int, error) {
	buf := pageBufs.Get().(*[pageBytes]byte)
	defer pageBufs.Put(buf)
	first, _, i, err := f.search(km, buf)
	return first + i, err
}

// search reads into buf the records of the page km belongs in — the last
// page whose first k-mer is not above it — and returns the page's first
// vertex index, its records and the position in them of the first k-mer not
// below km (len(recs)/VertexRecordBytes if there is none).
func (f *File) search(km dna.Kmer, buf *[pageBytes]byte) (first int, recs []byte, i int, err error) {
	pages := f.pages()
	if pages == 0 {
		return 0, nil, 0, nil
	}
	// Page 0 needs no probe: a km below its first k-mer belongs in it.
	var page int
	if f.pageKeys != nil {
		page = sort.Search(pages-1, func(p int) bool { return km.Less(f.pageKeys[p+1]) })
	} else {
		page = sort.Search(pages-1, func(p int) bool {
			if err != nil {
				return true
			}
			var first dna.Kmer
			first, err = f.readKmer((p + 1) * pageRecords)
			return km.Less(first)
		})
		if err != nil {
			return 0, nil, 0, err
		}
	}
	first = page * pageRecords
	n := min(pageRecords, f.count-first)
	recs = buf[:n*VertexRecordBytes]
	if err := readFullAt(f.r, recs, SerializedSize(first)); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: vertices %d-%d: %v", ErrBadFormat, first, first+n-1, err)
	}
	i = sort.Search(n, func(i int) bool { return !recordKmer(recs[i*VertexRecordBytes:]).Less(km) })
	return first, recs, i, nil
}

// CheckSorted reads the file once and returns an error wrapping ErrUnsorted
// — at the vertex index Subgraph.CheckSorted reports — unless every k-mer is
// strictly above its predecessor: the whole-file check that makes Lookup's
// answers those of the graph a build published. Nothing is decoded or kept
// but the page keys, and those only when the check passes. A file of more
// than one range's worth of records is checked as contiguous page ranges at
// once (rangesFor), the 1 MiB read buffer shared out among them.
func (f *File) CheckSorted() error { return f.checkSorted(rangesFor(f.count)) }

// checkSorted is CheckSorted over ranges page ranges. Each range checks its
// first k-mer against the one before it, the last of the range below, so the
// ranges together make every comparison a serial pass makes, and the lowest
// range's failure is the first that pass would meet.
func (f *File) checkSorted(ranges int) error {
	pages := f.pages()
	ranges = max(1, min(ranges, pages, checkBlockPages))
	blockPages := min(checkBlockPages/ranges, (pages+ranges-1)/ranges)
	blockRecords := blockPages * pageRecords
	buf := make([]byte, ranges*blockPages*pageBytes)
	keys := make([]dna.Kmer, pages)
	err := eachRange(ranges, func(r int) error {
		block := buf[r*blockPages*pageBytes : (r+1)*blockPages*pageBytes]
		start, end := pages*r/ranges*pageRecords, min(pages*(r+1)/ranges*pageRecords, f.count)
		var prev dna.Kmer
		if start > 0 {
			var err error
			if prev, err = f.readKmer(start - 1); err != nil {
				return err
			}
		}
		for first := start; first < end; first += blockRecords {
			n := min(blockRecords, end-first)
			recs := block[:n*VertexRecordBytes]
			if err := readFullAt(f.r, recs, SerializedSize(first)); err != nil {
				return fmt.Errorf("%w: vertices %d-%d: %v", ErrBadFormat, first, first+n-1, err)
			}
			for i := 0; i < n; i++ {
				km := recordKmer(recs[i*VertexRecordBytes:])
				if first+i > 0 && !prev.Less(km) {
					return fmt.Errorf("%w: vertex %d", ErrUnsorted, first+i)
				}
				if i%pageRecords == 0 {
					keys[(first+i)/pageRecords] = km
				}
				prev = km
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.pageKeys = keys
	return nil
}
