package graph

import (
	"fmt"
	"io"
	"sort"

	"parahash/internal/dna"
)

// streamWindowBytes sizes a MergeStreams source's read window: the most
// whole records that fit in 64 KiB, so the merge holds 64 KiB a source
// however large the sources are.
const streamWindowBytes = 1 << 16

// windowFor returns the read window of a source of count records of
// layout l that the merge shares out among ranges key ranges.
func windowFor(count int, l recordLayout, ranges int) []byte {
	return make([]byte, max(min(count, streamWindowBytes/l.size()), ranges, 1)*l.size())
}

// streamCursor is one MergeStreams source: its reader, its record layout,
// the window last read from it, and how much of what its header declared is
// still to come.
type streamCursor struct {
	src    int // position among the sources, for error messages
	r      io.Reader
	layout recordLayout
	window []byte
	// recs is the unread rest of the window; its first record is the head,
	// vertex number index of the source.
	recs   []byte
	index  uint64
	unread uint64 // records the header declared that are not yet in a window
}

// refill reads the source's next window. It reports false when the source
// has delivered exactly the records its header declared and then ended;
// fewer records, or a byte after the last one, is ErrBadFormat.
func (c *streamCursor) refill() (bool, error) {
	size := c.layout.size()
	if c.unread == 0 {
		if n, err := io.ReadFull(c.r, c.window[:1]); n > 0 {
			return false, fmt.Errorf("%w: source %d: data after its %d vertices", ErrBadFormat, c.src, c.index)
		} else if err != io.EOF {
			return false, fmt.Errorf("%w: source %d: after vertex %d: %w", ErrBadFormat, c.src, c.index, err)
		}
		return false, nil
	}
	n := min(c.unread, uint64(len(c.window)/size))
	c.recs = c.window[:n*uint64(size)]
	if got, err := io.ReadFull(c.r, c.recs); err != nil {
		return false, fmt.Errorf("%w: source %d: vertex %d: %w", ErrBadFormat, c.src, c.index+uint64(got/size), err)
	}
	c.unread -= n
	return true, nil
}

// head decodes the k-mer of the cursor's head record, held to checkKmer.
func (c *streamCursor) head(k int) (dna.Kmer, error) {
	km := c.layout.key(c.recs)
	if err := checkKmer(k, km); err != nil {
		return km, fmt.Errorf("source %d: vertex %d: %w", c.src, c.index, err)
	}
	return km, nil
}

// MergeStreams k-way merges serialised subgraphs — what Subgraph.Write
// produced: a header, then records in strictly ascending k-mer order — from
// srcs straight into one serialised subgraph on w, and returns the vertices
// and distinct edges (NumVertices and NumEdges of the result) it wrote. It is
// Merge for graphs that are on disk already and need not fit in memory: one
// window of at most 64 KiB per source and one write block are resident. The
// output's header carries the sum of the sources' declared counts and the
// widest of their count widths, so it is written first and never patched; a
// record whose source has the output's layout is copied, any other is
// re-encoded. Over version-2 sources that width is what Subgraph.Write picks
// for the merged graph, so the bytes are Merge + Write's. A version-1 source
// counts as 4 bytes wide: a stream cannot be read twice to find its largest
// count, as MergeFiles does.
//
// Every source is held to its header: magic, version, k and width
// (ErrBadFormat), strictly ascending k-mers (ErrUnsorted, naming the source
// and vertex), and exactly the declared number of records with nothing after
// them (ErrBadFormat). Unlike Merge, a k-mer that appears in two sources is
// an error too (ErrUnsorted): MSP partitions are disjoint, so in the
// published files of a build a shared k-mer can only be damage, and summing
// it would hide that. A failed read surfaces wrapped in ErrBadFormat beside
// its cause. On any error w holds a prefix of a graph that the caller must
// discard.
func MergeStreams(k int, srcs []io.Reader, w io.Writer) (vertices, edges int64, err error) {
	cur := make([]streamCursor, 0, len(srcs))
	var total uint64
	out := layoutFor(k, 0)
	for i, r := range srcs {
		h, err := readHeader(r)
		if err != nil {
			return 0, 0, fmt.Errorf("source %d: %w", i, err)
		}
		if h.k != k {
			return 0, 0, fmt.Errorf("%w: source %d: k=%d, want %d", ErrBadFormat, i, h.k, k)
		}
		total += h.count
		out.countBytes = max(out.countBytes, h.layout.countBytes)
		c := streamCursor{src: i, r: r, unread: h.count, layout: h.layout,
			window: windowFor(int(h.count), h.layout, 1)}
		if cur, err = c.start(cur); err != nil {
			return 0, 0, err
		}
	}
	block := writeBlocks.Get().(*[writeBlockBytes]byte)
	defer writeBlocks.Put(block)
	putHeader(block[:], k, total, out)
	return mergeCursors(k, cur, out, block[:], headerBytes, w)
}

// start reads the cursor's first window and appends it to cur if the source
// holds any record.
func (c streamCursor) start(cur []streamCursor) ([]streamCursor, error) {
	more, err := c.refill()
	if more {
		cur = append(cur, c)
	}
	return cur, err
}

// mergeCursors is the one merge loop, of MergeStreams and of every range of
// MergeFiles: it writes the cursors' records to w in ascending k-mer order at
// layout out through block, whose first fill bytes are already taken, and
// returns the vertices and distinct edges it wrote. Each cursor is checked
// to ascend as it advances, and a k-mer at the head of two cursors is
// ErrUnsorted.
func mergeCursors(k int, cur []streamCursor, out recordLayout, block []byte, fill int, w io.Writer) (vertices, edges int64, err error) {
	var t loserTree
	for i := range cur {
		km, err := cur[i].head(k)
		if err != nil {
			return 0, 0, err
		}
		t.keys = append(t.keys, km)
	}
	size := out.size()
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
			if fill+size > len(block) {
				if _, err := w.Write(block[:fill]); err != nil {
					return vertices, edges, err
				}
				fill = 0
			}
			if c.layout == out {
				copy(block[fill:fill+size], c.recs)
			} else {
				var v Vertex
				c.layout.get(&v, c.recs)
				out.put(block[fill:], &v)
			}
			fill += size
			edges += c.layout.degree(c.recs)
			vertices++
			last, lastSrc = key, c.src

			c.recs = c.recs[c.layout.size():]
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
			next, err := c.head(k)
			if err != nil {
				return vertices, edges, err
			}
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

// Source is a serialised subgraph that can be read at any offset, and its
// size: a published subgraph file (store.Stream is one).
type Source interface {
	io.ReaderAt
	Size() int64
}

// MergeFiles is MergeStreams over sources read in place. Each source is
// opened with OpenFile — header, k and exact size — and held to every check
// MergeStreams makes. The output's count width is the widest of the
// sources', a version-1 source's found by one pass over its counts, so the
// bytes are Merge + Write's over sources of either version. When w is an
// io.WriterAt and the sources hold more than one range's worth of records
// (rangesFor), the merge splits by key: it picks splitters from the sources'
// quantile k-mers, finds each in every source by binary search, and merges
// each key range on its own goroutine into that range's offset of the
// output, computed from the counts below the splitters; any other writer
// gets one range. The bytes written are the same either way — an
// io.WriterAt gets them at offsets from 0 — and the header is written
// first. The 64 KiB read window of a source and the write block are shared
// out among the ranges, so the merge holds what MergeStreams holds however
// many ranges run. On any error w holds parts of a graph that the caller
// must discard, and the error is the lowest failing range's.
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
	putHeader(block[:], k, uint64(total), out)
	if ranges > 1 { // the header goes out first, before any range starts
		if _, err := wa.WriteAt(block[:headerBytes], 0); err != nil {
			return 0, 0, err
		}
	}
	counts := make([][2]int64, ranges)
	err = eachRange(ranges, func(r int) error {
		var cur []streamCursor
		for i, f := range files {
			first, n := cuts[i][r], cuts[i][r+1]-cuts[i][r]
			size := f.layout.size()
			share := len(windows[i]) / size / ranges * size
			c := streamCursor{src: i, index: uint64(first), unread: uint64(n), layout: f.layout,
				r:      io.NewSectionReader(f.r, f.offset(first), int64(n*size)),
				window: windows[i][r*share : (r+1)*share]}
			var err error
			if cur, err = c.start(cur); err != nil {
				return err
			}
		}
		part := block[r*writeBlockBytes/ranges : (r+1)*writeBlockBytes/ranges]
		fill, dst := 0, w
		if ranges == 1 {
			fill = headerBytes // the header leads the one range's first block
		} else {
			dst = io.NewOffsetWriter(wa, offsets[r])
		}
		var err error
		counts[r][0], counts[r][1], err = mergeCursors(k, cur, out, part, fill, dst)
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
	size := f.layout.size()
	window := windowFor(f.count, f.layout, 1)
	var counts uint32
	for first := 0; first < f.count; first += len(window) / size {
		recs := window[:min(len(window), (f.count-first)*size)]
		if err := readFullAt(f.r, recs, f.offset(first)); err != nil {
			return 0, fmt.Errorf("%w: vertex %d: %v", ErrBadFormat, first, err)
		}
		for i := 0; i < len(recs); i += size {
			for j := 0; j < 8; j++ {
				counts |= f.layout.count(recs[i:], j)
			}
		}
	}
	return countWidth(counts), nil
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
