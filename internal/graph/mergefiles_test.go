package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"parahash/internal/dna"
)

// image serialises a subgraph.
func image(t testing.TB, g *Subgraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dealVertices sorts vs into one subgraph per entry of sizes — sizes[i]
// vertices drawn without replacement, what is left over to the last — so
// the subgraphs are disjoint and interleave over the key space.
func dealVertices(rng *rand.Rand, k int, vs []Vertex, sizes []int) []*Subgraph {
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	subs := make([]*Subgraph, len(sizes))
	for i, n := range sizes {
		if i == len(sizes)-1 {
			n = len(vs)
		}
		subs[i] = &Subgraph{K: k, Vertices: append([]Vertex(nil), vs[:n]...)}
		subs[i].Sort()
		vs = vs[n:]
	}
	return subs
}

// damageCase is one way a published subgraph file can be wrong: damage
// returns the damaged image, and want is the error class a merge must give.
type damageCase struct {
	name   string
	damage func(img []byte) []byte
	want   error
}

// damageCases lists the damage a source of each records of k can take.
func damageCases(k, each int) []damageCase {
	rec := layoutFor(k, 6).size()
	record := func(img []byte, i int) []byte {
		return img[headerBytes+i*rec : headerBytes+(i+1)*rec]
	}
	swap := func(img []byte, i, j int) {
		tmp := bytes.Clone(record(img, i))
		copy(record(img, i), record(img, j))
		copy(record(img, j), tmp)
	}
	recount := func(img []byte, d int) {
		binary.LittleEndian.PutUint64(img[6:], uint64(each+d))
	}
	return []damageCase{
		{"bad magic", func(img []byte) []byte { img[0] ^= 1; return img }, ErrBadFormat},
		{"bad version", func(img []byte) []byte { img[4] = 9; return img }, ErrBadFormat},
		{"wrong k", func(img []byte) []byte { img[5] = byte(k + 1); return img }, ErrBadFormat},
		{"k out of range", func(img []byte) []byte { img[5] = 64; return img }, ErrBadFormat},
		{"bad count width", func(img []byte) []byte { img[14] = 3; return img }, ErrBadFormat},
		{"header cut short", func(img []byte) []byte { return img[:headerBytes-1] }, ErrBadFormat},
		{"truncated by a byte", func(img []byte) []byte { return img[:len(img)-1] }, ErrBadFormat},
		{"truncated by a record", func(img []byte) []byte { return img[:len(img)-rec] }, ErrBadFormat},
		{"a byte appended", func(img []byte) []byte { return append(img, 0) }, ErrBadFormat},
		{"a record appended", func(img []byte) []byte { return append(img, record(img, each-1)...) }, ErrBadFormat},
		{"count one too high", func(img []byte) []byte { recount(img, +1); return img }, ErrBadFormat},
		{"count one too low", func(img []byte) []byte { recount(img, -1); return img }, ErrBadFormat},
		{"swapped inside a window", func(img []byte) []byte { swap(img, 10, 11); return img }, ErrUnsorted},
		{"swapped across a refill", func(img []byte) []byte {
			swap(img, streamWindowBytes/rec-1, streamWindowBytes/rec)
			return img
		}, ErrUnsorted},
		{"repeated inside a source", func(img []byte) []byte {
			copy(record(img, 501), record(img, 500))
			return img
		}, ErrUnsorted},
		{"swapped across the middle", func(img []byte) []byte { swap(img, each/2-1, each/2); return img }, ErrUnsorted},
		{"first and last swapped", func(img []byte) []byte { swap(img, 0, each-1); return img }, ErrUnsorted},
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// atBuffer is an in-memory file: an io.WriterAt that grows to what is
// written, and an io.Writer at its end.
type atBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (a *atBuffer) WriteAt(p []byte, off int64) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if end := int(off) + len(p); end > len(a.buf) {
		a.buf = append(a.buf, make([]byte, end-len(a.buf))...)
	}
	return copy(a.buf[off:], p), nil
}

func (a *atBuffer) Write(p []byte) (int, error) { return a.WriteAt(p, int64(len(a.buf))) }

// imageSources serves images as merge sources.
func imageSources(images [][]byte) []Source {
	srcs := make([]Source, len(images))
	for i, img := range images {
		srcs[i] = bytes.NewReader(img)
	}
	return srcs
}

// openImages opens each image as a File.
func openImages(t testing.TB, images [][]byte) []*File {
	t.Helper()
	files := make([]*File, len(images))
	for i, img := range images {
		f, err := OpenFile(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// mergeFilesOf runs mergeFiles over the images in ranges key ranges into an
// in-memory file.
func mergeFilesOf(k int, images [][]byte, ranges int) ([]byte, int64, int64, error) {
	var out atBuffer
	vertices, edges, err := mergeFiles(k, imageSources(images), &out, ranges)
	return out.buf, vertices, edges, err
}

// rangeCounts is the range counts the range merge is tested at: every
// count from 1 to 8, under -short the extremes and a middle.
func rangeCounts() []int {
	if testing.Short() {
		return []int{1, 2, 3, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

// streamMergeOf runs MergeFiles over the images into a plain writer: one
// range that reads each source front to back, the streamed merge that
// checks a published subgraph file.
func streamMergeOf(k int, images [][]byte) ([]byte, int64, int64, error) {
	var out bytes.Buffer
	vertices, edges, err := MergeFiles(k, imageSources(images), &out)
	return out.Bytes(), vertices, edges, err
}

// mergeShape is disjoint sorted sources: their subgraphs and images.
type mergeShape struct {
	name   string
	k      int
	subs   []*Subgraph
	images [][]byte
}

// mergeShapes deals disjoint sorted sources for no sources, empty ones, one
// holding every k-mer, fewer records than ranges, source counts around and
// far above a typical build's, and sizes straddling the read window and the
// write block, at both key widths.
func mergeShapes(t *testing.T, seed int64) []mergeShape {
	rng := rand.New(rand.NewSource(seed))
	counts := []int{64, 257}
	if testing.Short() {
		counts = counts[:1] // a typical build's count
	}
	var shapes []mergeShape
	for _, k := range []int{27, 40} {
		rec := layoutFor(k, 6).size() // randomVertices' counts are below 7
		w, b := streamWindowBytes/rec, writeBlockBytes/rec
		sizes := map[string][]int{
			"no-sources":        {},
			"one-empty":         {0},
			"empty-sources":     {0, 0, 0},
			"one":               {700},
			"one-holds-all":     {0, 0, 3000, 0},
			"one-vertex":        {0, 1},
			"fewer-than-ranges": {1, 1, 1},
			"many-uneven":       {5, 2000, 0, 31, 900, 1, 0, 400},
			"window-edges":      {w - 1, w, w + 1, 2 * w, 2*w + 1, 0, 7},
			"block-edges":       {b - 1, 0, 1},
			"block-edges+1":     {b, 2},
		}
		for _, n := range counts {
			each := make([]int, n)
			for i := range each {
				if i%7 != 3 { // a few sources stay empty
					each[i] = rng.Intn(400)
				}
			}
			sizes[fmt.Sprintf("%d-sources", n)] = each
		}
		names := make([]string, 0, len(sizes))
		for name := range sizes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			total := 0
			for _, n := range sizes[name] {
				total += n
			}
			vs := randomVertices(int64(total+k), total, k)
			if k == 40 && total > 100 && !slices.ContainsFunc(vs, func(v Vertex) bool { return v.Kmer.Hi != 0 }) {
				t.Fatalf("k=40 %s: no k-mer above 64 bits, the case tests nothing", name)
			}
			subs := dealVertices(rng, k, vs, sizes[name])
			images := make([][]byte, len(subs))
			for i, s := range subs {
				images[i] = image(t, s)
			}
			shapes = append(shapes, mergeShape{name: name, k: k, subs: subs, images: images})
		}
	}
	return shapes
}

// TestMergeStreamsMatchesMerge: over disjoint sorted sources the streamed
// merge writes the bytes Merge + Write would, and counts what NumVertices
// and NumEdges count, for every shape of mergeShapes.
func TestMergeStreamsMatchesMerge(t *testing.T) {
	for _, s := range mergeShapes(t, 31) {
		merged, err := Merge(s.k, s.subs...)
		if err != nil {
			t.Fatal(err)
		}
		got, vertices, edges, err := streamMergeOf(s.k, s.images)
		if err != nil {
			t.Fatalf("k=%d %s: %v", s.k, s.name, err)
		}
		if !bytes.Equal(got, image(t, merged)) {
			t.Fatalf("k=%d %s: streamed bytes differ from Merge + Write", s.k, s.name)
		}
		if vertices != int64(merged.NumVertices()) || edges != int64(merged.NumEdges()) {
			t.Fatalf("k=%d %s: counted %d vertices, %d edges; the graph has %d, %d",
				s.k, s.name, vertices, edges, merged.NumVertices(), merged.NumEdges())
		}
	}
}

// TestMergeFilesMatchesMergeStreams: at every range count, for every shape
// of mergeShapes, the range merge into a file at offsets writes the
// streamed merge's bytes and counts.
func TestMergeFilesMatchesMergeStreams(t *testing.T) {
	for _, s := range mergeShapes(t, 41) {
		want, wantV, wantE, err := streamMergeOf(s.k, s.images)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranges := range rangeCounts() {
			got, vertices, edges, err := mergeFilesOf(s.k, s.images, ranges)
			if err != nil {
				t.Fatalf("k=%d %s, %d ranges: %v", s.k, s.name, ranges, err)
			}
			if !bytes.Equal(got, want) || vertices != wantV || edges != wantE {
				t.Fatalf("k=%d %s, %d ranges: %d bytes, %d vertices, %d edges; streamed %d, %d, %d",
					s.k, s.name, ranges, len(got), vertices, edges, len(want), wantV, wantE)
			}
		}
	}
}

// failingReaderAt fails every read that reaches offset n or beyond.
type failingReaderAt struct {
	*bytes.Reader
	n int64
}

func (r failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > r.n {
		return 0, errInjectedRead
	}
	return r.Reader.ReadAt(p, off)
}

// threeSources deals three disjoint sorted sources of each vertices — two
// read windows and a hundred records long — and clean serialises them
// afresh for a case to damage.
func threeSources(t *testing.T, k int, seed int64) (subs []*Subgraph, each int, clean func() [][]byte) {
	each = 2*streamWindowBytes/layoutFor(k, 6).size() + 100
	rng := rand.New(rand.NewSource(seed))
	subs = dealVertices(rng, k, randomVertices(seed+1, 3*each, k), []int{each, each, each})
	clean = func() [][]byte {
		return [][]byte{image(t, subs[0]), image(t, subs[1]), image(t, subs[2])}
	}
	return subs, each, clean
}

// TestMergeStreamsRefusesDamage damages one of three sources in every way a
// published subgraph file can be wrong: each is a typed error from the
// streamed merge, and what reached the writer by then is at most a prefix
// of the graph. So are a k-mer in two sources, a source whose reads fail
// and a writer that fails.
func TestMergeStreamsRefusesDamage(t *testing.T) {
	const k = 27
	subs, each, clean := threeSources(t, k, 32)
	good, _, _, err := streamMergeOf(k, clean())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range damageCases(k, each) {
		for damaged := range subs {
			images := clean()
			images[damaged] = c.damage(images[damaged])
			got, _, _, err := streamMergeOf(k, images)
			if !errors.Is(err, c.want) {
				t.Fatalf("%s in source %d: err = %v, want %v", c.name, damaged, err, c.want)
			}
			if !bytes.HasPrefix(good, got) {
				t.Fatalf("%s in source %d: the %d bytes written are not a prefix of the graph", c.name, damaged, len(got))
			}
		}
	}

	// The same k-mer in two sources, each of them in order on its own.
	shared := subs[0].Vertices[each/2]
	dup := &Subgraph{K: k, Vertices: append([]Vertex{shared}, subs[1].Vertices...)}
	dup.Sort()
	if _, _, _, err := streamMergeOf(k, [][]byte{image(t, subs[0]), image(t, dup), image(t, subs[2])}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("a k-mer in two sources: err = %v, want ErrUnsorted", err)
	}
	if _, err := Merge(k, subs[0], dup, subs[2]); err != nil {
		t.Fatalf("Merge sums what the streamed merge refuses: %v", err)
	}

	// A source whose reads fail in the header, inside the first window, at a
	// refill and inside a later window.
	for _, after := range []int{5, headerBytes + 100, headerBytes + streamWindowBytes, len(good) / 4} {
		images := clean()
		srcs := imageSources(images)
		srcs[1] = failingReaderAt{bytes.NewReader(images[1]), int64(after)}
		var out bytes.Buffer
		_, _, err := MergeFiles(k, srcs, &out)
		if !errors.Is(err, ErrBadFormat) || !errors.Is(err, errInjectedRead) {
			t.Fatalf("reads failing past %d bytes: err = %v, want ErrBadFormat wrapping the read failure", after, err)
		}
		if !bytes.HasPrefix(good, out.Bytes()) {
			t.Fatalf("reads failing past %d bytes: output is not a prefix of the graph", after)
		}
	}

	// A writer that fails: its error, as Write returns it.
	errFull := errors.New("disk full")
	if _, _, err := MergeFiles(k, imageSources(clean()), writerFunc(func([]byte) (int, error) { return 0, errFull })); !errors.Is(err, errFull) {
		t.Fatalf("failing writer: err = %v", err)
	}
}

// TestMergeFilesRefusesDamage: every damage the streamed merge refuses, the
// range merge refuses at every range count with the same class of error;
// so it does a k-mer in two sources — anywhere, and exactly a splitter — a
// source whose reads fail and a file that fails.
func TestMergeFilesRefusesDamage(t *testing.T) {
	const k = 27
	rec := layoutFor(k, 6).size()
	subs, each, clean := threeSources(t, k, 42)
	for _, c := range damageCases(k, each) {
		for damaged := range subs {
			images := clean()
			images[damaged] = c.damage(images[damaged])
			for _, ranges := range rangeCounts() {
				_, _, _, err := mergeFilesOf(k, images, ranges)
				if !errors.Is(err, c.want) {
					t.Fatalf("%s in source %d, %d ranges: err = %v, want %v", c.name, damaged, ranges, err, c.want)
				}
			}
		}
	}

	// The same k-mer in two sources, each of them in order on its own.
	shared := subs[0].Vertices[each/2]
	dup := &Subgraph{K: k, Vertices: append([]Vertex{shared}, subs[1].Vertices...)}
	dup.Sort()
	for _, ranges := range rangeCounts() {
		if _, _, _, err := mergeFilesOf(k, [][]byte{image(t, subs[0]), image(t, dup), image(t, subs[2])}, ranges); !errors.Is(err, ErrUnsorted) {
			t.Fatalf("a k-mer in two sources, %d ranges: err = %v, want ErrUnsorted", ranges, err)
		}
	}

	// Two records swapped across a cut: however the search lands among
	// them, the source is refused.
	quantiles := func(ranges int) map[int]bool {
		q := map[int]bool{}
		for i := 1; i < ranges; i++ {
			q[each*i/ranges] = true
		}
		return q
	}
	for _, ranges := range rangeCounts()[1:] {
		splitters, _ := pickSplitters(openImages(t, clean()), ranges)
		tested := false
		for _, s := range splitters {
			for i, g := range subs {
				at := sort.Search(each, func(j int) bool { return !g.Vertices[j].Kmer.Less(s) })
				if at == 0 || at == each || g.Vertices[at].Kmer == s || quantiles(ranges)[at] || quantiles(ranges)[at-1] {
					continue
				}
				images := clean()
				record := func(j int) []byte {
					return images[i][headerBytes+j*rec : headerBytes+(j+1)*rec]
				}
				swapped := bytes.Clone(record(at - 1))
				copy(record(at-1), record(at))
				copy(record(at), swapped)
				if again, _ := pickSplitters(openImages(t, images), ranges); !slices.Equal(again, splitters) {
					t.Fatalf("%d ranges: the swap moved the splitters", ranges)
				}
				if _, _, _, err := mergeFilesOf(k, images, ranges); !errors.Is(err, ErrUnsorted) {
					t.Fatalf("%d ranges: records swapped at the cut of source %d: err = %v, want ErrUnsorted", ranges, i, err)
				}
				tested = true
			}
		}
		if !tested {
			t.Fatalf("%d ranges: no cut to swap at; the case tests nothing", ranges)
		}
	}

	// A splitter — a k-mer of the source that offered it — put into another
	// source in place of its neighbour there, so the quantiles and so the
	// splitters stay put.
	for _, ranges := range rangeCounts()[1:] {
		splitters, err := pickSplitters(openImages(t, clean()), ranges)
		if err != nil {
			t.Fatal(err)
		}
		s := splitters[len(splitters)/2]
		in := func(g *Subgraph) int {
			return sort.Search(len(g.Vertices), func(i int) bool { return !g.Vertices[i].Kmer.Less(s) })
		}
		holder, other := -1, -1
		for i, g := range subs {
			if p := in(g); p < each && g.Vertices[p].Kmer == s {
				holder = i
			} else if other < 0 {
				other = i
			}
		}
		at := in(subs[other])
		if quantiles(ranges)[at] {
			at--
		}
		dup := &Subgraph{K: k, Vertices: append([]Vertex(nil), subs[other].Vertices...)}
		dup.Vertices[at].Kmer = s
		images := clean()
		images[other] = image(t, dup)
		if again, _ := pickSplitters(openImages(t, images), ranges); holder < 0 || dup.CheckSorted() != nil || !slices.Contains(again, s) {
			t.Fatalf("%d ranges: the shared k-mer is not a splitter of sorted sources; the case tests nothing", ranges)
		}
		if _, _, _, err := mergeFilesOf(k, images, ranges); !errors.Is(err, ErrUnsorted) {
			t.Fatalf("%d ranges: a splitter in two sources: err = %v, want ErrUnsorted", ranges, err)
		}
	}

	// A source whose reads fail in the header, in the first window, in the
	// middle and at the end.
	img := image(t, subs[1])
	for _, after := range []int{5, headerBytes + 100, len(img) / 2, len(img) - 1} {
		for _, ranges := range rangeCounts() {
			images := clean()
			srcs := imageSources(images)
			srcs[1] = failingReaderAt{bytes.NewReader(images[1]), int64(after)}
			_, _, err := mergeFiles(k, srcs, &atBuffer{}, ranges)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("reads failing past %d bytes, %d ranges: err = %v, want ErrBadFormat", after, ranges, err)
			}
		}
	}

	// A file that fails: its error, as WriteAt returns it.
	errFull := errors.New("disk full")
	for _, ranges := range rangeCounts() {
		_, _, err := mergeFiles(k, imageSources(clean()), writerAtFunc(func([]byte, int64) (int, error) { return 0, errFull }), ranges)
		if !errors.Is(err, errFull) {
			t.Fatalf("%d ranges, failing file: err = %v", ranges, err)
		}
	}
}

// TestCutAtFindsAndChecksTheBoundaries: on a sorted file the cuts are the
// lower bounds of the splitters — present k-mers, their neighbours, keys
// below and above every vertex, checked and unchecked — and a file that is
// out of order right at a cut, where neither range sees it, is ErrUnsorted.
func TestCutAtFindsAndChecksTheBoundaries(t *testing.T) {
	const k = 27
	pageRecords, _ := geometry(t, k)
	n := 5*pageRecords + 7
	g, img := sortedImage(t, 44, n, k)
	rec := layoutFor(k, 6).size()
	off := func(i int) int { return headerBytes + i*rec }
	keys := probesFor(g)
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	for _, checked := range []bool{false, true} {
		f := openImages(t, [][]byte{img})[0]
		if checked {
			if err := f.CheckSorted(); err != nil {
				t.Fatal(err)
			}
		}
		cuts, err := f.cutAt(0, keys)
		if err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
		for j, s := range keys {
			want := sort.Search(n, func(i int) bool { return !g.Vertices[i].Kmer.Less(s) })
			if cuts[j+1] != want {
				t.Fatalf("checked=%v: cut at %v is vertex %d, the lower bound is %d", checked, s, cuts[j+1], want)
			}
		}
		if cuts[0] != 0 || cuts[len(cuts)-1] != n {
			t.Fatalf("checked=%v: cuts run %d to %d, want 0 to %d", checked, cuts[0], cuts[len(cuts)-1], n)
		}
	}
	// The last record of a page repeats the first of the next: the search
	// for that k-mer lands on the page start and only the cut's check of the
	// record before it sees the repeat.
	for _, at := range []int{pageRecords, 3 * pageRecords} {
		bad := bytes.Clone(img)
		copy(bad[off(at-1):off(at)], bad[off(at):off(at+1)])
		f := openImages(t, [][]byte{bad})[0]
		if _, err := f.cutAt(0, []dna.Kmer{g.Vertices[at].Kmer}); !errors.Is(err, ErrUnsorted) {
			t.Fatalf("a repeat across the cut at %d: err = %v, want ErrUnsorted", at, err)
		}
	}
}

// writerAtFunc is an io.WriterAt, and an io.Writer at offset 0.
type writerAtFunc func([]byte, int64) (int, error)

func (f writerAtFunc) WriteAt(p []byte, off int64) (int, error) { return f(p, off) }
func (f writerAtFunc) Write(p []byte) (int, error)              { return f(p, 0) }

// mergeMemory merges 64 sources of 21 846 vertices each — 64 MiB of graph
// — into w in ranges key ranges, twice, the second time with the write
// block pooled, and fails if a merge allocates 8 MiB or more: it is to hold
// a window per source, shared out among the ranges, and one write block.
func mergeMemory(t *testing.T, w func(written *atomic.Int64) io.Writer, ranges int) {
	t.Helper()
	const k, sources, each = 27, 64, 1 << 20 / v1RecordBytes
	images := make([][]byte, sources)
	for s := range images {
		g := &Subgraph{K: k, Vertices: make([]Vertex, each)}
		for i := range g.Vertices {
			g.Vertices[i] = Vertex{Kmer: dna.Kmer{Lo: uint64(i*sources + s)}, Counts: [8]uint32{1, 0, 2}}
		}
		images[s] = image(t, g)
	}
	var written atomic.Int64
	sink := w(&written)
	var m0, m1 runtime.MemStats
	for round := 0; round < 2; round++ {
		srcs := imageSources(images)
		written.Store(0)
		runtime.ReadMemStats(&m0)
		vertices, edges, err := mergeFiles(k, srcs, sink, ranges)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if vertices != sources*each || edges != 2*sources*each || written.Load() != headerBytes+16*sources*each {
			t.Fatalf("%d ranges: merged %d vertices, %d edges into %d bytes", ranges, vertices, edges, written.Load())
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 8<<20 {
			t.Fatalf("merging %d MiB in %d ranges allocated %d bytes, want under 8 MiB", sources, ranges, grew)
		}
	}
}

// TestMergeStreamsMemoryFollowsSources: the streamed merge into a plain
// writer holds a window per source and a write block, not the graph.
func TestMergeStreamsMemoryFollowsSources(t *testing.T) {
	mergeMemory(t, func(written *atomic.Int64) io.Writer {
		return writerFunc(func(p []byte) (int, error) { written.Add(int64(len(p))); return len(p), nil })
	}, 0)
}

// TestMergeFilesMemoryFollowsSources: the range merge into a file, in one
// key range and in four, holds what the streamed merge does.
func TestMergeFilesMemoryFollowsSources(t *testing.T) {
	for _, ranges := range []int{1, 4} {
		mergeMemory(t, func(written *atomic.Int64) io.Writer {
			return writerAtFunc(func(p []byte, _ int64) (int, error) { written.Add(int64(len(p))); return len(p), nil })
		}, ranges)
	}
}

// cutSources cuts data into sources: the little-endian uint16 pairs of cuts
// are the lengths (clipped to what is left), and what remains after the last
// is one more source.
func cutSources(data, cuts []byte) [][]byte {
	var srcs [][]byte
	for ; len(cuts) >= 2 && len(srcs) < 40; cuts = cuts[2:] {
		n := min(int(binary.LittleEndian.Uint16(cuts)), len(data))
		srcs = append(srcs, data[:n:n])
		data = data[n:]
	}
	if len(data) > 0 {
		srcs = append(srcs, data)
	}
	return srcs
}

// FuzzMergeFiles holds MergeFiles — in 1 to 8 ranges as the input says,
// and in one range into a plain writer — to Merge: an arbitrary image is
// cut into sources of the k the first one's header names (27 if there is
// none), and whenever every source is one ReadSubgraph and CheckSorted
// accept, of exactly the size its header declares, and no k-mer is in two of
// them, both write Merge's bytes and count Merge's vertices and edges;
// anything else is a typed error from each. A version-2 source whose count
// width is wider than its counts need widens the output, so it is then held
// to Merge's graph, not its bytes.
func FuzzMergeFiles(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	add := func(images [][]byte, tail []byte) {
		var data, cuts []byte
		for _, img := range images {
			data = append(data, img...)
			cuts = binary.LittleEndian.AppendUint16(cuts, uint16(len(img)))
		}
		f.Add(append(data, tail...), cuts, uint8(len(images)))
	}
	seed := func(subs []*Subgraph, tail []byte) {
		images := make([][]byte, len(subs))
		for i, s := range subs {
			images[i] = image(f, s)
		}
		add(images, tail)
	}
	seed(nil, nil)
	seed(dealVertices(rng, 27, randomVertices(35, 300, 27), []int{100, 0, 150, 50}), nil)
	seed(dealVertices(rng, 27, randomVertices(36, 90, 27), []int{40, 50}), []byte{1})
	seed([]*Subgraph{sortedRun(rng, 27, 60, 64), sortedRun(rng, 27, 60, 64)}, nil) // shared k-mers
	seed([]*Subgraph{{K: 28, Vertices: randomVertices(37, 5, 27)}}, nil)
	for _, img := range formatImages(f) {
		add([][]byte{img}, nil)
	}
	for _, k := range []int{27, 33} { // counts narrower than the width they were written at
		for _, w := range widths[1:] {
			g := widened(&Subgraph{K: k, Vertices: randomVertices(39, 12, k)}, w.max)
			img := image(f, g)
			l := recordLayout{keyWords: keyWords(k), countBytes: w.bytes}
			c := headerBytes + len(g.Vertices)/2*l.size() + 8*l.keyWords + 3*w.bytes
			clear(img[c+1 : c+w.bytes]) // the widened count is now 255
			add([][]byte{img}, nil)
		}
	}
	for _, k := range []int{27, 33} { // version 1 and 2 side by side, at every width
		for _, w := range widths {
			subs := dealVertices(rng, k, randomVertices(38, 30, k), []int{10, 10, 10})
			widened(subs[1], w.max)
			add([][]byte{image(f, subs[0]), writeV1(subs[1]), image(f, subs[2])}, nil)
		}
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte, ranges uint8) {
		images := cutSources(data, cuts)
		k := 27
		if len(images) > 0 && len(images[0]) > 5 {
			k = int(images[0][5])
		}
		subs := make([]*Subgraph, len(images))
		seen := make(map[dna.Kmer]bool)
		valid, wide := true, false
		for i, img := range images {
			g, err := ReadSubgraph(bytes.NewReader(img))
			if err != nil || g.K != k || g.CheckSorted() != nil || int64(len(img)) != imageSize(img, g.NumVertices()) {
				valid = false
				break
			}
			for _, v := range g.Vertices {
				if seen[v.Kmer] {
					valid = false
				}
				seen[v.Kmer] = true
			}
			subs[i] = g
			wide = wide || (img[4] == 2 && int(img[14]) != countWidth(largestCount(g.Vertices)))
		}
		var plain bytes.Buffer
		vertices, edges, err := MergeFiles(k, imageSources(images), &plain)
		r := 1 + int(ranges%8)
		inRanges, rangeV, rangeE, rangeErr := mergeFilesOf(k, images, r)
		if !valid {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrUnsorted) {
				t.Fatalf("sources Merge would not take: err = %v, want ErrBadFormat or ErrUnsorted", err)
			}
			if !errors.Is(rangeErr, ErrBadFormat) && !errors.Is(rangeErr, ErrUnsorted) {
				t.Fatalf("sources Merge would not take, %d ranges: err = %v, want ErrBadFormat or ErrUnsorted", r, rangeErr)
			}
			return
		}
		if err != nil || rangeErr != nil {
			t.Fatalf("valid disjoint sources: %v; in %d ranges: %v", err, r, rangeErr)
		}
		merged, err := Merge(k, subs...)
		if err != nil {
			t.Fatal(err)
		}
		want := image(t, merged)
		for name, out := range map[string][]byte{"a plain writer": plain.Bytes(), fmt.Sprintf("%d ranges", r): inRanges} {
			if !wide && !bytes.Equal(out, want) {
				t.Fatalf("into %s: %d bytes, Merge + Write %d", name, len(out), len(want))
			}
			if g, err := ReadSubgraph(bytes.NewReader(out)); err != nil || !g.Equal(merged) {
				t.Fatalf("into %s: another graph: %v", name, err)
			}
		}
		if vertices != int64(merged.NumVertices()) || edges != int64(merged.NumEdges()) || rangeV != vertices || rangeE != edges {
			t.Fatalf("counted %d, %d vertices and %d, %d edges; the graph has %d, %d",
				vertices, rangeV, edges, rangeE, merged.NumVertices(), merged.NumEdges())
		}
	})
}

// BenchmarkMergeFiles is BenchmarkMerge's shape from serialised sources
// read in place — 64 disjoint partition files of 12.7 k vertices into one
// 0.81 M-vertex file — in 1, 2 and 4 key ranges at once.
func BenchmarkMergeFiles(b *testing.B) {
	const k, runs, each = 27, 64, 12_700
	all := randomVertices(5, runs*each, k)
	images := make([][]byte, runs)
	for r := range images {
		g := &Subgraph{K: k, Vertices: all[r*each : (r+1)*each]}
		g.Sort()
		images[r] = image(b, g)
	}
	sink := writerAtFunc(func(p []byte, _ int64) (int, error) { return len(p), nil })
	for _, ranges := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranges=%d", ranges), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := mergeFiles(k, imageSources(images), sink, ranges); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(runs*each), "ns/vertex")
		})
	}
}
