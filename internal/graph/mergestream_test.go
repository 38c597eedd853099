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

// mergeStreamsOf runs MergeStreams over the images, every other source
// behind a reader that hands out short reads.
func mergeStreamsOf(k int, images [][]byte) ([]byte, int64, int64, error) {
	srcs := make([]io.Reader, len(images))
	for i, img := range images {
		if i%2 == 1 {
			srcs[i] = &chunkReader{data: img, n: 1000}
		} else {
			srcs[i] = bytes.NewReader(img)
		}
	}
	var out bytes.Buffer
	vertices, edges, err := MergeStreams(k, srcs, &out)
	return out.Bytes(), vertices, edges, err
}

// TestMergeStreamsMatchesMerge: over disjoint sorted sources MergeStreams
// writes the bytes Merge + Write would, and counts what NumVertices and
// NumEdges count, for source counts around and far above a typical build's,
// empty sources, and sizes straddling the read window and the write block.
func TestMergeStreamsMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	counts := []int{64, 257}
	if testing.Short() {
		counts = counts[:1] // a typical build's count
	}
	for _, k := range []int{27, 40} {
		rec := layoutFor(k, 6).size() // randomVertices' counts are below 7
		w, b := streamWindowBytes/rec, writeBlockBytes/rec
		shapes := map[string][]int{
			"no-sources":    {},
			"one-empty":     {0},
			"one":           {700},
			"two":           {0, 900},
			"window-edges":  {w - 1, w, w + 1, 2 * w, 2*w + 1, 1},
			"block-edges":   {b - 1, 0, 1},
			"block-edges+1": {b, 2},
		}
		for _, n := range counts {
			sizes := make([]int, n)
			for i := range sizes {
				if i%7 != 3 { // a few sources stay empty
					sizes[i] = rng.Intn(400)
				}
			}
			shapes[fmt.Sprintf("%d-sources", n)] = sizes
		}
		for name, sizes := range shapes {
			total := 0
			for _, n := range sizes {
				total += n
			}
			subs := dealVertices(rng, k, randomVertices(int64(total+k), total, k), sizes)
			images := make([][]byte, len(subs))
			for i, s := range subs {
				images[i] = image(t, s)
			}
			merged, err := Merge(k, subs...)
			if err != nil {
				t.Fatal(err)
			}
			if k == 40 && total > 100 && merged.Vertices[total-1].Kmer.Hi == 0 {
				t.Fatalf("k=40 %s: no k-mer above 64 bits, the case tests nothing", name)
			}
			got, vertices, edges, err := mergeStreamsOf(k, images)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
			if !bytes.Equal(got, image(t, merged)) {
				t.Fatalf("k=%d %s: MergeStreams bytes differ from Merge + Write", k, name)
			}
			if vertices != int64(merged.NumVertices()) || edges != int64(merged.NumEdges()) {
				t.Fatalf("k=%d %s: counted %d vertices, %d edges; the graph has %d, %d",
					k, name, vertices, edges, merged.NumVertices(), merged.NumEdges())
			}
		}
	}
}

// failingReader fails once n bytes have been served.
type failingReader struct {
	data []byte
	n    int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, errInjectedRead
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data, r.n = r.data[n:], r.n-n
	return n, nil
}

// damageCase is one way a published subgraph file can be wrong: damage
// returns the damaged image, want is the error class a merge must give, and
// prefix says the header is intact, so a streamed merge's output starts like
// the good graph's.
type damageCase struct {
	name   string
	damage func(img []byte) []byte
	want   error
	prefix bool
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
		{"bad magic", func(img []byte) []byte { img[0] ^= 1; return img }, ErrBadFormat, false},
		{"bad version", func(img []byte) []byte { img[4] = 9; return img }, ErrBadFormat, false},
		{"wrong k", func(img []byte) []byte { img[5] = byte(k + 1); return img }, ErrBadFormat, false},
		{"k out of range", func(img []byte) []byte { img[5] = 64; return img }, ErrBadFormat, false},
		{"bad count width", func(img []byte) []byte { img[14] = 3; return img }, ErrBadFormat, false},
		{"header cut short", func(img []byte) []byte { return img[:headerBytes-1] }, ErrBadFormat, false},
		{"truncated by a byte", func(img []byte) []byte { return img[:len(img)-1] }, ErrBadFormat, true},
		{"truncated by a record", func(img []byte) []byte { return img[:len(img)-rec] }, ErrBadFormat, true},
		{"a byte appended", func(img []byte) []byte { return append(img, 0) }, ErrBadFormat, true},
		{"a record appended", func(img []byte) []byte { return append(img, record(img, each-1)...) }, ErrBadFormat, true},
		{"count one too high", func(img []byte) []byte { recount(img, +1); return img }, ErrBadFormat, false},
		{"count one too low", func(img []byte) []byte { recount(img, -1); return img }, ErrBadFormat, false},
		{"swapped inside a window", func(img []byte) []byte { swap(img, 10, 11); return img }, ErrUnsorted, true},
		{"swapped across a refill", func(img []byte) []byte {
			swap(img, streamWindowBytes/rec-1, streamWindowBytes/rec)
			return img
		}, ErrUnsorted, true},
		{"repeated inside a source", func(img []byte) []byte {
			copy(record(img, 501), record(img, 500))
			return img
		}, ErrUnsorted, true},
		{"swapped across the middle", func(img []byte) []byte { swap(img, each/2-1, each/2); return img }, ErrUnsorted, true},
		{"first and last swapped", func(img []byte) []byte { swap(img, 0, each-1); return img }, ErrUnsorted, true},
	}
}

// TestMergeStreamsRefusesDamage damages one of three sources in every way a
// published subgraph file can be wrong: each is a typed error, and what
// reached the writer by then is at most a prefix of the graph.
func TestMergeStreamsRefusesDamage(t *testing.T) {
	const k = 27
	each := 2*streamWindowBytes/layoutFor(k, 6).size() + 100
	rng := rand.New(rand.NewSource(32))
	subs := dealVertices(rng, k, randomVertices(33, 3*each, k), []int{each, each, each})
	clean := func() [][]byte {
		return [][]byte{image(t, subs[0]), image(t, subs[1]), image(t, subs[2])}
	}
	good, _, _, err := mergeStreamsOf(k, clean())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range damageCases(k, each) {
		for damaged := range subs {
			images := clean()
			images[damaged] = c.damage(images[damaged])
			got, _, _, err := mergeStreamsOf(k, images)
			if !errors.Is(err, c.want) {
				t.Fatalf("%s in source %d: err = %v, want %v", c.name, damaged, err, c.want)
			}
			if c.prefix && !bytes.HasPrefix(good, got) {
				t.Fatalf("%s in source %d: the %d bytes written are not a prefix of the graph", c.name, damaged, len(got))
			}
		}
	}

	// The same k-mer in two sources, each of them in order on its own.
	shared := subs[0].Vertices[each/2]
	dup := &Subgraph{K: k, Vertices: append([]Vertex{shared}, subs[1].Vertices...)}
	dup.Sort()
	if _, _, _, err := mergeStreamsOf(k, [][]byte{image(t, subs[0]), image(t, dup), image(t, subs[2])}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("a k-mer in two sources: err = %v, want ErrUnsorted", err)
	}
	if _, err := Merge(k, subs[0], dup, subs[2]); err != nil {
		t.Fatalf("Merge sums what MergeStreams refuses: %v", err)
	}

	// A reader that fails in the header, inside the first window, at a
	// refill and inside a later window.
	for _, after := range []int{5, headerBytes + 100, headerBytes + streamWindowBytes, len(good) / 4} {
		images := clean()
		srcs := []io.Reader{bytes.NewReader(images[0]), &failingReader{data: images[1], n: after}, bytes.NewReader(images[2])}
		var out bytes.Buffer
		_, _, err := MergeStreams(k, srcs, &out)
		if !errors.Is(err, ErrBadFormat) || !errors.Is(err, errInjectedRead) {
			t.Fatalf("reader failing after %d bytes: err = %v, want ErrBadFormat wrapping the read failure", after, err)
		}
		if !bytes.HasPrefix(good, out.Bytes()) {
			t.Fatalf("reader failing after %d bytes: output is not a prefix of the graph", after)
		}
	}

	// A writer that fails: its error, as Write returns it.
	errFull := errors.New("disk full")
	srcs := []io.Reader{bytes.NewReader(image(t, subs[0]))}
	if _, _, err := MergeStreams(k, srcs, writerFunc(func([]byte) (int, error) { return 0, errFull })); !errors.Is(err, errFull) {
		t.Fatalf("failing writer: err = %v", err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMergeStreamsMemoryFollowsSources: merging 64 sources of 21 846
// vertices each allocates a window per source and a write block, not the
// graph.
func TestMergeStreamsMemoryFollowsSources(t *testing.T) {
	const k, sources, each = 27, 64, 1 << 20 / v1RecordBytes
	images := make([][]byte, sources)
	for s := range images {
		g := &Subgraph{K: k, Vertices: make([]Vertex, each)}
		for i := range g.Vertices {
			g.Vertices[i] = Vertex{Kmer: dna.Kmer{Lo: uint64(i*sources + s)}, Counts: [8]uint32{1, 0, 2}}
		}
		images[s] = image(t, g)
	}
	srcs := make([]io.Reader, sources)
	var written int64
	sink := writerFunc(func(p []byte) (int, error) { written += int64(len(p)); return len(p), nil })
	var m0, m1 runtime.MemStats
	for round := 0; round < 2; round++ { // the second with the write block pooled
		for s := range srcs {
			srcs[s] = bytes.NewReader(images[s])
		}
		written = 0
		runtime.ReadMemStats(&m0)
		vertices, edges, err := MergeStreams(k, srcs, sink)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if vertices != sources*each || edges != 2*sources*each || written != headerBytes+16*sources*each {
			t.Fatalf("merged %d vertices, %d edges into %d bytes", vertices, edges, written)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 8<<20 {
			t.Fatalf("merging %d MiB allocated %d bytes, want under 8 MiB", sources, grew)
		}
	}
}

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

// rangeCounts is the range counts the range merge is held to MergeStreams
// at: every count from 1 to 8, under -short the extremes and a middle.
func rangeCounts() []int {
	if testing.Short() {
		return []int{1, 2, 3, 8}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8}
}

// TestMergeFilesMatchesMergeStreams: at every range count, over empty
// sources, one source holding every k-mer, many interleaved sources and
// sizes straddling the read window, the range merge writes MergeStreams's
// bytes and counts — into a file at offsets, and in one range into a plain
// writer.
func TestMergeFilesMatchesMergeStreams(t *testing.T) {
	const w = streamWindowBytes / 16
	shapes := map[string][]int{
		"no-sources":        {},
		"empty-sources":     {0, 0, 0},
		"one-holds-all":     {0, 0, 3000, 0},
		"one-vertex":        {0, 1},
		"window-edges":      {w - 1, w, w + 1, 2*w + 1, 0, 7},
		"many-uneven":       {5, 2000, 0, 31, 900, 1, 0, 400},
		"fewer-than-ranges": {1, 1, 1},
	}
	rng := rand.New(rand.NewSource(41))
	sizes := make([]int, 64)
	for i := range sizes {
		if i%9 != 4 {
			sizes[i] = rng.Intn(200)
		}
	}
	shapes["64-sources"] = sizes
	for name, sizes := range shapes {
		total := 0
		for _, n := range sizes {
			total += n
		}
		for _, k := range []int{27, 40} {
			subs := dealVertices(rng, k, randomVertices(int64(total+k), total, k), sizes)
			images := make([][]byte, len(subs))
			for i, s := range subs {
				images[i] = image(t, s)
			}
			want, wantV, wantE, err := mergeStreamsOf(k, images)
			if err != nil {
				t.Fatal(err)
			}
			for _, ranges := range rangeCounts() {
				got, vertices, edges, err := mergeFilesOf(k, images, ranges)
				if err != nil {
					t.Fatalf("%s k=%d, %d ranges: %v", name, k, ranges, err)
				}
				if !bytes.Equal(got, want) || vertices != wantV || edges != wantE {
					t.Fatalf("%s k=%d, %d ranges: %d bytes, %d vertices, %d edges; MergeStreams wrote %d, %d, %d",
						name, k, ranges, len(got), vertices, edges, len(want), wantV, wantE)
				}
			}
			var plain bytes.Buffer
			if _, _, err := MergeFiles(k, imageSources(images), &plain); err != nil || !bytes.Equal(plain.Bytes(), want) {
				t.Fatalf("%s k=%d: MergeFiles into a plain writer: %v, or bytes differ", name, k, err)
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

// TestMergeFilesRefusesDamage: every damage MergeStreams refuses, the range
// merge refuses at every range count with the same class of error; so it
// does a k-mer in two sources that is exactly a splitter, a source whose
// reads fail and a writer that fails.
func TestMergeFilesRefusesDamage(t *testing.T) {
	const k = 27
	rec := layoutFor(k, 6).size()
	each := 2*streamWindowBytes/rec + 100
	rng := rand.New(rand.NewSource(42))
	subs := dealVertices(rng, k, randomVertices(43, 3*each, k), []int{each, each, each})
	clean := func() [][]byte {
		return [][]byte{image(t, subs[0]), image(t, subs[1]), image(t, subs[2])}
	}
	for _, c := range damageCases(k, each) {
		for damaged := range subs {
			images := clean()
			images[damaged] = c.damage(images[damaged])
			_, _, _, streamErr := mergeStreamsOf(k, images)
			for _, ranges := range rangeCounts() {
				_, _, _, err := mergeFilesOf(k, images, ranges)
				if !errors.Is(err, c.want) || !errors.Is(streamErr, c.want) {
					t.Fatalf("%s in source %d, %d ranges: err = %v, MergeStreams's %v, want %v", c.name, damaged, ranges, err, streamErr, c.want)
				}
			}
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
		if _, _, _, err := mergeStreamsOf(k, images); !errors.Is(err, ErrUnsorted) {
			t.Fatalf("a k-mer in two sources: MergeStreams err = %v, want ErrUnsorted", err)
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

// TestMergeFilesMemoryFollowsSources: merging 64 sources of 21 846 vertices
// each in 4 key ranges allocates what the one-range merge does — a window per source,
// shared out among the ranges, and one write block — not the graph.
func TestMergeFilesMemoryFollowsSources(t *testing.T) {
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
	sink := writerAtFunc(func(p []byte, _ int64) (int, error) { written.Add(int64(len(p))); return len(p), nil })
	var m0, m1 runtime.MemStats
	for round := 0; round < 2; round++ { // the second with the write block pooled
		srcs := imageSources(images)
		written.Store(0)
		runtime.ReadMemStats(&m0)
		vertices, edges, err := mergeFiles(k, srcs, sink, 4)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if vertices != sources*each || edges != 2*sources*each || written.Load() != headerBytes+16*sources*each {
			t.Fatalf("merged %d vertices, %d edges into %d bytes", vertices, edges, written.Load())
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 8<<20 {
			t.Fatalf("merging %d MiB in 4 ranges allocated %d bytes, want under 8 MiB", sources, grew)
		}
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

// FuzzMergeStreams holds MergeStreams to Merge, and the range merge, in 1
// to 8 ranges as the input says, to both: an arbitrary image is cut into
// sources of the k the first one's header names (27 if there is none), and
// whenever every source is one ReadSubgraph and CheckSorted accept, of
// exactly the size its header declares, and no k-mer is in two of them, the
// range merge writes Merge's bytes, MergeStreams writes them too unless a
// source is version 1 (it then writes Merge's graph at count width 4), and
// both count Merge's vertices and edges; anything else is a typed error from
// each. A version-2 source whose count width is wider than its counts need
// widens both outputs, so they are then held to Merge's graph, not its bytes.
func FuzzMergeStreams(f *testing.F) {
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
		valid, v1, wide := true, false, false
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
			subs[i], v1 = g, v1 || img[4] == 1
			wide = wide || (img[4] == 2 && int(img[14]) != countWidth(largestCount(g.Vertices)))
		}
		got, vertices, edges, err := mergeStreamsOf(k, images)
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
		if (!wide && !bytes.Equal(inRanges, want)) || rangeV != vertices || rangeE != edges {
			t.Fatalf("in %d ranges: %d bytes, %d vertices, %d edges; Merge + Write %d bytes, MergeStreams %d, %d", r, len(inRanges), rangeV, rangeE, len(want), vertices, edges)
		}
		if !v1 && !wide && !bytes.Equal(got, want) {
			t.Fatal("MergeStreams bytes differ from Merge + Write")
		}
		for name, out := range map[string][]byte{"MergeStreams": got, "the range merge": inRanges} {
			if g, err := ReadSubgraph(bytes.NewReader(out)); err != nil || !g.Equal(merged) {
				t.Fatalf("%s wrote another graph: %v", name, err)
			}
		}
		if vertices != int64(merged.NumVertices()) || edges != int64(merged.NumEdges()) {
			t.Fatalf("counted %d vertices, %d edges; the graph has %d, %d", vertices, edges, merged.NumVertices(), merged.NumEdges())
		}
	})
}

// BenchmarkMergeStreams is BenchmarkMerge's shape from serialised sources:
// 64 disjoint partition files of 12.7 k vertices into one 0.81 M-vertex file.
func BenchmarkMergeStreams(b *testing.B) {
	const k, runs, each = 27, 64, 12_700
	all := randomVertices(5, runs*each, k)
	images := make([][]byte, runs)
	for r := range images {
		g := &Subgraph{K: k, Vertices: all[r*each : (r+1)*each]}
		g.Sort()
		images[r] = image(b, g)
	}
	srcs := make([]io.Reader, runs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range srcs {
			srcs[r] = bytes.NewReader(images[r])
		}
		if _, _, err := MergeStreams(k, srcs, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(runs*each), "ns/vertex")
}

// BenchmarkMergeFiles is BenchmarkMergeStreams's merge read in place, in 1,
// 2 and 4 key ranges at once.
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
