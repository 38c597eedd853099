package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
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
	const w, b = streamWindowRecords, writeBlockRecords
	shapes := map[string][]int{
		"no-sources":    {},
		"one-empty":     {0},
		"one":           {700},
		"two":           {0, 900},
		"window-edges":  {w - 1, w, w + 1, 2 * w, 2*w + 1, 1},
		"block-edges":   {b - 1, 0, 1},
		"block-edges+1": {b, 2},
	}
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 257} {
		sizes := make([]int, n)
		for i := range sizes {
			if i%7 != 3 { // a few sources stay empty
				sizes[i] = rng.Intn(400)
			}
		}
		shapes[fmt.Sprintf("%d-sources", n)] = sizes
	}
	for _, k := range []int{27, 40} {
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

// TestMergeStreamsRefusesDamage damages one of three sources in every way a
// published subgraph file can be wrong: each is a typed error, and what
// reached the writer by then is at most a prefix of the graph.
func TestMergeStreamsRefusesDamage(t *testing.T) {
	const k, each = 27, 2*streamWindowRecords + 100
	rng := rand.New(rand.NewSource(32))
	subs := dealVertices(rng, k, randomVertices(33, 3*each, k), []int{each, each, each})
	clean := func() [][]byte {
		return [][]byte{image(t, subs[0]), image(t, subs[1]), image(t, subs[2])}
	}
	good, _, _, err := mergeStreamsOf(k, clean())
	if err != nil {
		t.Fatal(err)
	}
	record := func(img []byte, i int) []byte {
		return img[headerBytes+i*VertexRecordBytes : headerBytes+(i+1)*VertexRecordBytes]
	}
	swap := func(img []byte, i, j int) {
		tmp := bytes.Clone(record(img, i))
		copy(record(img, i), record(img, j))
		copy(record(img, j), tmp)
	}
	recount := func(img []byte, d int) {
		binary.LittleEndian.PutUint64(img[6:], uint64(each+d))
	}
	cases := []struct {
		name   string
		damage func(img []byte) []byte
		want   error
		prefix bool // the source's header is intact, so the output starts like the good one
	}{
		{"bad magic", func(img []byte) []byte { img[0] ^= 1; return img }, ErrBadFormat, false},
		{"bad version", func(img []byte) []byte { img[4] = 9; return img }, ErrBadFormat, false},
		{"wrong k", func(img []byte) []byte { img[5] = k + 1; return img }, ErrBadFormat, false},
		{"header cut short", func(img []byte) []byte { return img[:headerBytes-1] }, ErrBadFormat, false},
		{"truncated by a byte", func(img []byte) []byte { return img[:len(img)-1] }, ErrBadFormat, true},
		{"truncated by a record", func(img []byte) []byte { return img[:len(img)-VertexRecordBytes] }, ErrBadFormat, true},
		{"a byte appended", func(img []byte) []byte { return append(img, 0) }, ErrBadFormat, true},
		{"a record appended", func(img []byte) []byte { return append(img, record(img, each-1)...) }, ErrBadFormat, true},
		{"count one too high", func(img []byte) []byte { recount(img, +1); return img }, ErrBadFormat, false},
		{"count one too low", func(img []byte) []byte { recount(img, -1); return img }, ErrBadFormat, false},
		{"swapped inside a window", func(img []byte) []byte { swap(img, 10, 11); return img }, ErrUnsorted, true},
		{"swapped across a refill", func(img []byte) []byte {
			swap(img, streamWindowRecords-1, streamWindowRecords)
			return img
		}, ErrUnsorted, true},
		{"repeated inside a source", func(img []byte) []byte {
			copy(record(img, 501), record(img, 500))
			return img
		}, ErrUnsorted, true},
	}
	for _, c := range cases {
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
	for _, after := range []int{5, headerBytes + 100, headerBytes + streamWindowRecords*VertexRecordBytes, len(good) / 4} {
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

// TestMergeStreamsMemoryFollowsSources: merging 64 sources of 1 MiB each
// allocates a window per source and a write block, not the graph.
func TestMergeStreamsMemoryFollowsSources(t *testing.T) {
	const k, sources, each = 27, 64, 1 << 20 / VertexRecordBytes
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
		if vertices != sources*each || edges != 2*sources*each || written != SerializedSize(sources*each) {
			t.Fatalf("merged %d vertices, %d edges into %d bytes", vertices, edges, written)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 8<<20 {
			t.Fatalf("merging %d MiB allocated %d bytes, want under 8 MiB", sources, grew)
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

// FuzzMergeStreams holds MergeStreams to Merge: an arbitrary image is cut
// into sources, and whenever every source is one ReadSubgraph and
// CheckSorted accept, of exactly the size its header declares, and no k-mer
// is in two of them, the streamed merge writes Merge's bytes and counts;
// anything else is a typed error.
func FuzzMergeStreams(f *testing.F) {
	const k = 27
	rng := rand.New(rand.NewSource(34))
	seed := func(subs []*Subgraph, tail []byte) {
		var data, cuts []byte
		for _, s := range subs {
			img := image(f, s)
			data = append(data, img...)
			cuts = binary.LittleEndian.AppendUint16(cuts, uint16(len(img)))
		}
		f.Add(append(data, tail...), cuts)
	}
	seed(nil, nil)
	seed(dealVertices(rng, k, randomVertices(35, 300, k), []int{100, 0, 150, 50}), nil)
	seed(dealVertices(rng, k, randomVertices(36, 90, k), []int{40, 50}), []byte{1})
	seed([]*Subgraph{sortedRun(rng, k, 60, 64), sortedRun(rng, k, 60, 64)}, nil) // shared k-mers
	seed([]*Subgraph{{K: k + 1, Vertices: randomVertices(37, 5, k)}}, nil)
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		images := cutSources(data, cuts)
		subs := make([]*Subgraph, len(images))
		seen := make(map[dna.Kmer]bool)
		valid := true
		for i, img := range images {
			g, err := ReadSubgraph(bytes.NewReader(img))
			if err != nil || g.K != k || g.CheckSorted() != nil || int64(len(img)) != SerializedSize(g.NumVertices()) {
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
		}
		got, vertices, edges, err := mergeStreamsOf(k, images)
		if !valid {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrUnsorted) {
				t.Fatalf("sources Merge would not take: err = %v, want ErrBadFormat or ErrUnsorted", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid disjoint sources: %v", err)
		}
		merged, err := Merge(k, subs...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, image(t, merged)) {
			t.Fatal("MergeStreams bytes differ from Merge + Write")
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
