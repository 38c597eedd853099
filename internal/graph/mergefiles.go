package graph

import (
	"fmt"
	"io"
	"sort"

	"parahash/internal/dna"
)

// mergeCursors is the merge loop of every range of MergeFiles: it writes
// the cursors' records through bw in ascending k-mer order at layout out,
// and returns the vertices and distinct edges it wrote. A record whose
// source has the output's layout is copied, any other is re-encoded. A
// k-mer at the head of two cursors is ErrUnsorted: MSP partitions are
// disjoint, so in the published files of a build a shared k-mer can only be
// damage, and summing it would hide that.
func mergeCursors(cur []*streamCursor, out recordLayout, bw *blockWriter) (vertices, edges int64, err error) {
	var m cursorMerge
	size := out.size()
	var last dna.Kmer // the k-mer last written, from source lastSrc
	var lastSrc int
	w, err := m.start(cur)
	for ; w >= 0 && err == nil; w, err = m.next(w) {
		c, key := m.cur[w], m.t.keys[w]
		// Heads come out of the tournament in ascending order as long as
		// every source ascends, which the merge checks as each one advances:
		// a head that is not above the last one written is equal to it.
		if vertices > 0 && !last.Less(key) {
			return vertices, edges, fmt.Errorf("%w: k-mer %s is vertex %d of source %d and also in source %d",
				ErrUnsorted, key.String(c.k), c.index, c.src, lastSrc)
		}
		rec, err := bw.next(size)
		if err != nil {
			return vertices, edges, err
		}
		if c.layout == out {
			copy(rec, c.recs)
		} else {
			var v Vertex
			c.layout.get(&v, c.recs)
			out.put(rec, &v)
		}
		edges += c.layout.degree(c.recs)
		vertices++
		last, lastSrc = key, c.src
	}
	if err != nil {
		return vertices, edges, err
	}
	return vertices, edges, bw.flush()
}

// Source is a serialised subgraph that can be read at any offset, and its
// size: a published subgraph file (store.Stream is one).
type Source interface {
	io.ReaderAt
	Size() int64
}

// MergeFiles k-way merges serialised subgraphs — what Subgraph.Write
// produced: a header, then records in strictly ascending k-mer order — read
// in place from srcs into one serialised subgraph on w, and returns the
// vertices and distinct edges (NumVertices and NumEdges of the result) it
// wrote. It is Merge for graphs that are on disk already and need not fit
// in memory, and how a build finishes; over one source into io.Discard it is
// the judgement a published subgraph file is held to.
//
// Every source is opened with OpenFile and held to its header: magic,
// version, k and exact size (ErrBadFormat), and strictly ascending k-mers
// (ErrUnsorted, naming the source and vertex). Unlike Merge, a k-mer that
// appears in two sources is an error too (ErrUnsorted). A failed read
// surfaces wrapped in ErrBadFormat. The output's header carries the sum of
// the sources' counts and the widest of their count widths, a version-1
// source's found by one pass over its counts, so it is written first and
// never patched, and the bytes are Merge + Write's over sources of either
// version.
//
// When w is an io.WriterAt and the sources hold more than one range's worth
// of records (rangesFor), the merge splits by key: it picks splitters from
// the sources' quantile k-mers, finds each in every source by binary search,
// and merges each key range on its own goroutine into that range's offset
// of the output, computed from the counts below the splitters; any other
// writer gets one range. The bytes written are the same either way — an
// io.WriterAt gets them at offsets from 0. A source's 64 KiB read window and
// the write block are shared out among the ranges, so the merge holds the
// same however many ranges run. On any error w holds parts of a graph that
// the caller must discard, and the error is the lowest failing range's.
func MergeFiles(k int, srcs []Source, w io.Writer) (vertices, edges int64, err error) {
	return mergeFiles(k, srcs, w, 0)
}

// mergeFiles is MergeFiles in ranges key ranges, or rangesFor's count if
// ranges is 0; a writer that is not an io.WriterAt always gets one.
func mergeFiles(k int, srcs []Source, w io.Writer, ranges int) (vertices, edges int64, err error) {
	files := make([]*File, len(srcs))
	var total int
	out := layoutFor(k, 0)
	for i, src := range srcs {
		f, err := OpenFile(src, src.Size())
		if err != nil {
			return 0, 0, fmt.Errorf("source %d: %w", i, err)
		}
		if f.k != k {
			return 0, 0, fmt.Errorf("%w: source %d: k=%d, want %d", ErrBadFormat, i, f.k, k)
		}
		width, err := f.countBytes()
		if err != nil {
			return 0, 0, fmt.Errorf("source %d: %w", i, err)
		}
		out.countBytes = max(out.countBytes, width)
		files[i], total = f, total+f.count
	}
	wa, ok := w.(io.WriterAt)
	switch {
	case !ok:
		ranges = 1
	case ranges == 0:
		ranges = rangesFor(total)
	}
	ranges = max(1, min(ranges, total, maxRanges))

	// cuts[i][r] is the index of source i's first vertex in range r; range r
	// of source i ends where range r+1 begins.
	splitters, err := pickSplitters(files, ranges)
	if err != nil {
		return 0, 0, err
	}
	cuts := make([][]int, len(files))
	offsets := make([]int64, ranges+1) // offsets[r]: where range r's records go
	offsets[0] = headerBytes
	for i, f := range files {
		if cuts[i], err = f.cutAt(i, splitters); err != nil {
			return 0, 0, err
		}
		for r := 0; r < ranges; r++ {
			offsets[r+1] += int64(cuts[i][r+1]-cuts[i][r]) * int64(out.size())
		}
	}
	for r := 1; r <= ranges; r++ {
		offsets[r] += offsets[r-1]
	}

	windows := make([][]byte, len(files))
	for i, f := range files {
		windows[i] = windowFor(f.count, f.layout, ranges)
	}
	block := writeBlocks.Get().(*[writeBlockBytes]byte)
	defer writeBlocks.Put(block)
	if ranges > 1 { // the header goes out first, before any range starts
		putHeader(block[:], subgraphFile, k, uint64(total), out)
		if _, err := wa.WriteAt(block[:headerBytes], 0); err != nil {
			return 0, 0, err
		}
	}
	counts := make([][2]int64, ranges)
	err = eachRange(ranges, func(r int) error {
		cur := make([]*streamCursor, len(files))
		for i, f := range files {
			share := len(windows[i]) / f.layout.size() / ranges * f.layout.size()
			cur[i] = f.cursor(i, cuts[i][r], cuts[i][r+1]-cuts[i][r], windows[i][r*share:(r+1)*share])
		}
		bw := blockWriter{w: w, block: block[r*writeBlockBytes/ranges : (r+1)*writeBlockBytes/ranges]}
		if ranges == 1 { // the header leads the one range's first block
			head, _ := bw.next(headerBytes)
			putHeader(head, subgraphFile, k, uint64(total), out)
		} else {
			bw.w = io.NewOffsetWriter(wa, offsets[r])
		}
		var err error
		counts[r][0], counts[r][1], err = mergeCursors(cur, out, &bw)
		return err
	})
	for _, c := range counts {
		vertices, edges = vertices+c[0], edges+c[1]
	}
	return vertices, edges, err
}

// countBytes is the count width of the file: its header's, or for a
// version-1 file, which has none, countWidth of its largest count, found by
// one pass over its records.
func (f *File) countBytes() (int, error) {
	if f.head != v1HeaderBytes {
		return f.layout.countBytes, nil
	}
	c := f.cursor(-1, 0, f.count, windowFor(f.count, f.layout, 1))
	var counts uint32
	more, err := c.refill()
	for ; more; more, err = c.pop() {
		for j := 0; j < 8; j++ {
			counts |= c.layout.count(c.recs, j)
		}
	}
	return countWidth(counts), err
}

// cursor reads vertices first to first+n of the file, source src of a
// merge, through window.
func (f *File) cursor(src, first, n int, window []byte) *streamCursor {
	return &streamCursor{kind: subgraphFile, src: src, k: f.k, layout: f.layout,
		r:     io.NewSectionReader(f.r, f.offset(first), int64(n*f.layout.size())),
		index: uint64(first), unread: uint64(n), window: window}
}

// pickSplitters returns the ranges-1 k-mers that cut the files' vertices
// into ranges key ranges of about equal size: each file offers the k-mers at
// its ranges-quantiles, weighted by its vertex count, and the r-th splitter
// is the offered k-mer at which the weights summed in key order pass r
// ranges' share.
func pickSplitters(files []*File, ranges int) ([]dna.Kmer, error) {
	if ranges == 1 {
		return nil, nil
	}
	type offer struct {
		km     dna.Kmer
		weight int
	}
	var offers []offer
	var total int
	for i, f := range files {
		for q := 1; q < ranges && f.count > 0; q++ {
			km, err := f.readKmer(f.count * q / ranges)
			if err != nil {
				return nil, fmt.Errorf("source %d: %w", i, err)
			}
			offers = append(offers, offer{km, f.count})
			total += f.count
		}
	}
	sort.Slice(offers, func(a, b int) bool { return offers[a].km.Less(offers[b].km) })
	splitters := make([]dna.Kmer, 0, ranges-1)
	sum := 0
	for _, o := range offers {
		sum += o.weight
		for len(splitters) < ranges-1 && sum*ranges >= total*(len(splitters)+1) {
			splitters = append(splitters, o.km)
		}
	}
	return splitters, nil
}

// cutAt returns where the file, source src of a merge, splits at the
// ascending splitters: 0, the lower bound of each splitter, and the vertex
// count. It checks the invariant the ranges rest on — every k-mer before a
// cut is below its splitter and the one at the cut is not — so a range's
// k-mers all lie between its two splitters, and a file that ascends inside
// every range ascends as a whole; anything else is ErrUnsorted.
func (f *File) cutAt(src int, splitters []dna.Kmer) ([]int, error) {
	cuts := make([]int, 0, len(splitters)+2)
	cuts = append(cuts, 0)
	for _, s := range splitters {
		pos, err := f.lowerBound(s)
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", src, err)
		}
		if pos < cuts[len(cuts)-1] {
			return nil, fmt.Errorf("%w: source %d: vertex %d", ErrUnsorted, src, pos)
		}
		for i := max(pos-1, 0); i <= pos && i < f.count; i++ { // key[pos-1] < s ≤ key[pos]
			km, err := f.readKmer(i)
			if err != nil {
				return nil, fmt.Errorf("source %d: %w", src, err)
			}
			if km.Less(s) != (i < pos) {
				return nil, fmt.Errorf("%w: source %d: vertex %d", ErrUnsorted, src, i)
			}
		}
		cuts = append(cuts, pos)
	}
	return append(cuts, f.count), nil
}
