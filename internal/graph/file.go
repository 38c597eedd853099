package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"parahash/internal/dna"
)

// pageBytes is the lookup granularity of a File: a lookup reads the most
// whole records that fit in 4 KiB (256 of 16 bytes, 85 of 48), about one
// page of the file.
const pageBytes = 4096

// checkBlockBytes sizes CheckSorted's read buffer: whole pages, just under
// 1 MiB in all, so every page's first record starts a known offset into a
// block however the ranges of a split check share it out.
const checkBlockBytes = 1 << 20

// File answers k-mer lookups from a serialised subgraph in place: the
// published file — header plus fixed-size records in strictly ascending
// k-mer order — is its own index, so a lookup reads one page of it and a
// graph-sized decoded copy is never resident. Lookup may be called from
// many goroutines at once if the ReaderAt allows it (an *os.File does);
// CheckSorted must have returned before they start.
type File struct {
	r      io.ReaderAt
	k      int
	count  int
	head   int64 // the header's size: where the records start
	layout recordLayout
	// pageRecords is how many records a page holds.
	pageRecords int
	// pageKeys holds the first k-mer of every page once CheckSorted has
	// accepted the file (16 bytes per page); nil until then.
	pageKeys []dna.Kmer
}

// OpenFile validates the header of the size-byte subgraph serialisation
// behind r, of either version, and that size is exactly what the header's
// vertex count implies — a truncated or padded file is ErrBadFormat here,
// before anything is sized from that count.
func OpenFile(r io.ReaderAt, size int64) (*File, error) {
	h, err := readHeader(io.NewSectionReader(r, 0, size), subgraphFile)
	if err != nil {
		return nil, err
	}
	rec := int64(h.layout.size())
	if body := size - h.bytes; body%rec != 0 || uint64(body/rec) != h.count {
		return nil, fmt.Errorf("%w: %d bytes for %d vertices", ErrBadFormat, size, h.count)
	}
	return &File{r: r, k: h.k, count: int(h.count), head: h.bytes, layout: h.layout,
		pageRecords: pageBytes / int(rec)}, nil
}

// K returns the k-mer length recorded in the header.
func (f *File) K() int { return f.k }

// NumVertices returns the vertex count.
func (f *File) NumVertices() int { return f.count }

// pages returns the number of pages, the last possibly short.
func (f *File) pages() int { return (f.count + f.pageRecords - 1) / f.pageRecords }

// offset is where vertex i's record starts.
func (f *File) offset(i int) int64 { return f.head + int64(i)*int64(f.layout.size()) }

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

// readKmer reads the k-mer of vertex i.
func (f *File) readKmer(i int) (dna.Kmer, error) {
	var key [16]byte
	if err := readFullAt(f.r, key[:8*f.layout.keyWords], f.offset(i)); err != nil {
		return dna.Kmer{}, fmt.Errorf("%w: vertex %d: %v", ErrBadFormat, i, err)
	}
	return f.layout.key(key[:]), nil
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
	size := f.layout.size()
	if err != nil || i == len(recs)/size || f.layout.key(recs[i*size:]) != km {
		return Vertex{}, false, err
	}
	var v Vertex
	f.layout.get(&v, recs[i*size:])
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
// below km (the number of records if there is none).
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
			first, err = f.readKmer((p + 1) * f.pageRecords)
			return km.Less(first)
		})
		if err != nil {
			return 0, nil, 0, err
		}
	}
	first = page * f.pageRecords
	n, size := min(f.pageRecords, f.count-first), f.layout.size()
	recs = buf[:n*size]
	if err := readFullAt(f.r, recs, f.offset(first)); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: vertices %d-%d: %v", ErrBadFormat, first, first+n-1, err)
	}
	i = sort.Search(n, func(i int) bool { return !f.layout.key(recs[i*size:]).Less(km) })
	return first, recs, i, nil
}

// CheckSorted reads the file once and returns an error wrapping ErrUnsorted
// — at the vertex index Subgraph.CheckSorted reports — unless every k-mer is
// strictly above its predecessor: the whole-file check that makes Lookup's
// answers those of the graph a build published. It also refuses, as
// ErrBadFormat, the k-mers ReadSubgraph refuses (checkKmer). Nothing is
// decoded or kept but the page keys, and those only when the check passes.
// A file of more than one range's worth of records is checked as contiguous
// page ranges at once (rangesFor), the 1 MiB read buffer shared out among
// them.
func (f *File) CheckSorted() error { return f.checkSorted(rangesFor(f.count)) }

// checkSorted is CheckSorted over ranges page ranges. Each range checks its
// first k-mer against the one before it, the last of the range below, so the
// ranges together make every comparison a serial pass makes, and the lowest
// range's failure is the first that pass would meet.
func (f *File) checkSorted(ranges int) error {
	pages, pageSize := f.pages(), f.pageRecords*f.layout.size()
	blockPages := checkBlockBytes / pageSize
	ranges = max(1, min(ranges, pages, blockPages))
	blockPages = min(blockPages/ranges, (pages+ranges-1)/ranges)
	blockRecords := blockPages * f.pageRecords
	buf := make([]byte, ranges*blockPages*pageSize)
	keys := make([]dna.Kmer, pages)
	err := eachRange(ranges, func(r int) error {
		block := buf[r*blockPages*pageSize : (r+1)*blockPages*pageSize]
		start, end := pages*r/ranges*f.pageRecords, min(pages*(r+1)/ranges*f.pageRecords, f.count)
		var prev dna.Kmer
		if start > 0 {
			var err error
			if prev, err = f.readKmer(start - 1); err != nil {
				return err
			}
		}
		for first := start; first < end; first += blockRecords {
			n := min(blockRecords, end-first)
			recs := block[:n*f.layout.size()]
			if err := readFullAt(f.r, recs, f.offset(first)); err != nil {
				return fmt.Errorf("%w: vertices %d-%d: %v", ErrBadFormat, first, first+n-1, err)
			}
			var err error
			if prev, err = f.checkRecords(recs, first, prev); err != nil {
				return err
			}
			for i := 0; i < n; i += f.pageRecords {
				keys[(first+i)/f.pageRecords] = f.layout.key(recs[i*f.layout.size():])
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

// checkRecords checks that the records recs, vertex first on, ascend
// strictly from prev — the k-mer before them, if first > 0 — and hold k-mers
// k's key words can, and returns the last k-mer. One-word keys compare as
// integers.
func (f *File) checkRecords(recs []byte, first int, prev dna.Kmer) (dna.Kmer, error) {
	size := f.layout.size()
	n := len(recs) / size
	i := 0
	if first == 0 { // the first vertex has nothing below it
		km := f.layout.key(recs)
		if err := subgraphFile.checkKmer(f.k, km); err != nil {
			return prev, fmt.Errorf("vertex 0: %w", err)
		}
		prev, i = km, 1
	}
	if f.layout.keyWords == 1 {
		last := prev.Lo
		for ; i < n; i++ {
			lo := binary.LittleEndian.Uint64(recs[i*size:])
			if lo <= last {
				return prev, fmt.Errorf("%w: vertex %d", ErrUnsorted, first+i)
			}
			last = lo
		}
		return dna.Kmer{Lo: last}, nil
	}
	for ; i < n; i++ {
		km := f.layout.key(recs[i*size:])
		if err := subgraphFile.checkKmer(f.k, km); err != nil {
			return prev, fmt.Errorf("vertex %d: %w", first+i, err)
		}
		if !prev.Less(km) {
			return prev, fmt.Errorf("%w: vertex %d", ErrUnsorted, first+i)
		}
		prev = km
	}
	return prev, nil
}
