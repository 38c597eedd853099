package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"testing"

	"parahash/internal/dna"
)

// sortedImage serialises n random canonical k-mers in ascending order and
// returns the decoded form alongside.
func sortedImage(t testing.TB, seed int64, n, k int) (*Subgraph, []byte) {
	t.Helper()
	g := &Subgraph{K: k, Vertices: randomVertices(seed, n, k)}
	g.Sort()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return g, buf.Bytes()
}

// countingReaderAt counts ReadAt calls and fails the failAt-th (1-based;
// 0 never fails).
type countingReaderAt struct {
	r      io.ReaderAt
	calls  int
	failAt int
}

var errInjectedRead = errors.New("injected read failure")

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	if c.calls == c.failAt {
		return 0, errInjectedRead
	}
	return c.r.ReadAt(p, off)
}

// step returns the k-mer d above km in 128-bit order (d is ±1).
func step(km dna.Kmer, d int) dna.Kmer {
	if d > 0 {
		lo, carry := bits.Add64(km.Lo, 1, 0)
		return dna.Kmer{Hi: km.Hi + carry, Lo: lo}
	}
	lo, borrow := bits.Sub64(km.Lo, 1, 0)
	return dna.Kmer{Hi: km.Hi - borrow, Lo: lo}
}

// probesFor lists every stored k-mer, its ±1 neighbours, and keys below the
// first and above the last vertex.
func probesFor(g *Subgraph) []dna.Kmer {
	keys := []dna.Kmer{{}, {Hi: ^uint64(0), Lo: ^uint64(0)}, {Hi: 1}, {Hi: 1 << 40, Lo: 7}}
	for _, v := range g.Vertices {
		keys = append(keys, v.Kmer, step(v.Kmer, -1), step(v.Kmer, +1))
	}
	return keys
}

// assertSameLookups checks File.Lookup ≡ Subgraph.Lookup over keys.
func assertSameLookups(t testing.TB, f *File, g *Subgraph, keys []dna.Kmer) {
	t.Helper()
	for _, km := range keys {
		want, wantOK := g.Lookup(km)
		got, ok, err := f.Lookup(km)
		if err != nil {
			t.Fatalf("Lookup(%v): %v", km, err)
		}
		if ok != wantOK || got != want {
			t.Fatalf("Lookup(%v) = %v, %v; Subgraph.Lookup = %v, %v", km, got, ok, want, wantOK)
		}
	}
}

// TestFileLookupMatchesSubgraph: for sizes around every page and block
// boundary, checked and unchecked, the in-place reader answers exactly as
// the decoded graph does — for every present k-mer, its neighbours, keys
// outside the graph's range and keys with a non-zero high word (k > 32) —
// within the documented number of reads.
func TestFileLookupMatchesSubgraph(t *testing.T) {
	overTwoBlocks := 2*checkBlockPages*pageRecords + 100
	for _, n := range []int{0, 1, 2, 84, 85, 86, 170, 171, 5000, overTwoBlocks} {
		g, image := sortedImage(t, int64(n)+1, n, 40)
		keys := probesFor(g)
		pages := (n + pageRecords - 1) / pageRecords
		for _, checked := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/checked=%v", n, checked), func(t *testing.T) {
				cr := &countingReaderAt{r: bytes.NewReader(image)}
				f, err := OpenFile(cr, int64(len(image)))
				if err != nil {
					t.Fatal(err)
				}
				if f.K() != g.K || f.NumVertices() != n {
					t.Fatalf("K, NumVertices = %d, %d; want %d, %d", f.K(), f.NumVertices(), g.K, n)
				}
				maxReads := 0
				if pages > 0 {
					maxReads = bits.Len(uint(pages-1)) + 1 // ⌈log2 pages⌉ probes + the page
				}
				if checked {
					if err := f.CheckSorted(); err != nil {
						t.Fatal(err)
					}
					maxReads = min(pages, 1)
				}
				for _, km := range keys {
					before := cr.calls
					assertSameLookups(t, f, g, []dna.Kmer{km})
					if reads := cr.calls - before; reads > maxReads || (checked && reads != maxReads) {
						t.Fatalf("Lookup(%v) made %d reads, want at most %d", km, reads, maxReads)
					}
				}
			})
		}
	}
}

// TestOpenFileRejectsDamage: the header and the exact-size check refuse a
// damaged image before anything is sized from its count.
func TestOpenFileRejectsDamage(t *testing.T) {
	_, image := sortedImage(t, 7, 200, 27)
	mutate := func(fn func(b []byte) []byte) []byte { return fn(bytes.Clone(image)) }
	huge := bytes.Clone(image[:headerBytes])
	binary.LittleEndian.PutUint64(huge[6:], 1<<36)
	cases := map[string][]byte{
		"empty":                nil,
		"short header":         image[:headerBytes-1],
		"bad magic":            mutate(func(b []byte) []byte { b[0] = 'Q'; return b }),
		"bad version":          mutate(func(b []byte) []byte { b[4] = 2; return b }),
		"truncated one byte":   image[:len(image)-1],
		"truncated one record": image[:len(image)-VertexRecordBytes],
		"padded one byte":      append(bytes.Clone(image), 0),
		"padded one record":    append(bytes.Clone(image), make([]byte, VertexRecordBytes)...),
		"count 2^36":           huge,
		"count 2^63":           mutate(func(b []byte) []byte { b[13] = 0x80; return b }),
	}
	for name, in := range cases {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := OpenFile(bytes.NewReader(in), int64(len(in)))
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: OpenFile allocated %d bytes", name, grew)
		}
	}
	// A claimed size the reader cannot back is caught at the first read past
	// its end, not trusted.
	f, err := OpenFile(bytes.NewReader(image[:headerBytes]), int64(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Lookup(dna.Kmer{Lo: 1}); !errors.Is(err, ErrBadFormat) {
		t.Errorf("Lookup past the reader's end: err = %v, want ErrBadFormat", err)
	}
	if err := f.CheckSorted(); !errors.Is(err, ErrBadFormat) {
		t.Errorf("CheckSorted past the reader's end: err = %v, want ErrBadFormat", err)
	}
}

// TestReadSubgraphHugeCount: a header claiming 2^36 vertices over an empty
// body is a typed error after a bounded allocation — not the runtime's
// unrecoverable out-of-memory a make([]Vertex, count) would be.
func TestReadSubgraphHugeCount(t *testing.T) {
	_, image := sortedImage(t, 8, 3*writeBlockRecords, 27)
	binary.LittleEndian.PutUint64(image[6:], 1<<36)
	for _, in := range [][]byte{image[:headerBytes], image} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadSubgraph(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		wantErr := fmt.Sprintf("vertex %d", (len(in)-headerBytes)/VertexRecordBytes)
		if !errors.Is(err, ErrBadFormat) || !bytes.Contains([]byte(err.Error()), []byte(wantErr)) {
			t.Errorf("%d-byte image: err = %v, want ErrBadFormat at %s", len(in), err, wantErr)
		}
		if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(4*len(in))+4<<20; grew > limit {
			t.Errorf("%d-byte image: ReadSubgraph allocated %d bytes, want under %d", len(in), grew, limit)
		}
	}
}

// TestFileReadFailures: a ReaderAt that fails mid-probe or mid-check gives a
// typed error, and a failed check leaves no partial page index behind.
func TestFileReadFailures(t *testing.T) {
	g, image := sortedImage(t, 9, overBlock, 27)
	last := g.Vertices[len(g.Vertices)-1].Kmer

	cr := &countingReaderAt{r: bytes.NewReader(image)}
	f, err := OpenFile(cr, int64(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	cr.failAt = cr.calls + 3 // a probe in the middle of the page search
	if _, _, err := f.Lookup(last); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Lookup over a failing reader: err = %v, want ErrBadFormat", err)
	}
	cr.failAt = cr.calls + 2 // the second block of the check
	if err := f.CheckSorted(); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("CheckSorted over a failing reader: err = %v, want ErrBadFormat", err)
	}
	if f.pageKeys != nil {
		t.Fatal("a failed CheckSorted kept page keys")
	}
	cr.failAt = 0
	assertSameLookups(t, f, g, []dna.Kmer{last, g.Vertices[0].Kmer})
	if err := f.CheckSorted(); err != nil {
		t.Fatal(err)
	}
	cr.failAt = cr.calls + 1 // a checked lookup's only read
	if _, _, err := f.Lookup(last); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("checked Lookup over a failing reader: err = %v, want ErrBadFormat", err)
	}
}

// overBlock is a vertex count just past one CheckSorted block.
const overBlock = checkBlockPages*pageRecords + 10

// TestFileCheckSortedIndex: the streamed check reports disorder — equal
// neighbours included — at the vertex index the decoded check reports, also
// when the pair straddles a page or a block boundary, and keeps no index of
// a file it refused.
func TestFileCheckSortedIndex(t *testing.T) {
	g, _ := sortedImage(t, 10, overBlock, 27)
	block := checkBlockPages * pageRecords
	for _, i := range []int{1, 2, pageRecords, pageRecords + 1, block, block + 1, overBlock - 1} {
		for _, duplicate := range []bool{false, true} {
			vs := append([]Vertex(nil), g.Vertices...)
			if duplicate {
				vs[i].Kmer = vs[i-1].Kmer
			} else {
				vs[i-1], vs[i] = vs[i], vs[i-1]
			}
			damaged := &Subgraph{K: g.K, Vertices: vs}
			var buf bytes.Buffer
			if err := damaged.Write(&buf); err != nil {
				t.Fatal(err)
			}
			f, err := OpenFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			want := damaged.CheckSorted()
			got := f.CheckSorted()
			if !errors.Is(got, ErrUnsorted) || got.Error() != want.Error() {
				t.Errorf("disorder at %d (duplicate=%v): File.CheckSorted = %v, Subgraph.CheckSorted = %v", i, duplicate, got, want)
			}
			if f.pageKeys != nil {
				t.Errorf("disorder at %d: a refused file kept page keys", i)
			}
		}
	}
}

// FuzzOpenFile holds the two readers of the PHDG format to each other on
// arbitrary images: what the in-place reader accepts the decoding reader
// accepts and answers identically; what only the decoding reader accepts has
// trailing bytes (the one deliberate difference); and neither sizes an
// allocation from the header alone.
func FuzzOpenFile(f *testing.F) {
	for _, n := range []int{0, 1, 85, 86, 300} {
		_, image := sortedImage(f, int64(n), n, 33)
		f.Add(image)
		f.Add(image[:len(image)/2])
		f.Add(append(bytes.Clone(image), 1, 2, 3))
		if n > 1 {
			swapped := bytes.Clone(image)
			copy(swapped[headerBytes:], image[headerBytes+VertexRecordBytes:headerBytes+2*VertexRecordBytes])
			copy(swapped[headerBytes+VertexRecordBytes:], image[headerBytes:headerBytes+VertexRecordBytes])
			f.Add(swapped)
		}
	}
	huge := []byte("PHDG\x01\x1b\x00\x00\x00\x00\x10\x00\x00\x00")
	f.Add(huge)
	f.Fuzz(func(t *testing.T, image []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		file, fileErr := OpenFile(bytes.NewReader(image), int64(len(image)))
		if fileErr == nil {
			fileErr = file.CheckSorted()
		}
		g, readErr := ReadSubgraph(bytes.NewReader(image))
		if readErr == nil {
			readErr = g.CheckSorted()
		}
		runtime.ReadMemStats(&m1)
		if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(image))+4<<20; grew > limit {
			t.Fatalf("%d-byte image: the readers allocated %d bytes", len(image), grew)
		}
		switch {
		case fileErr == nil && readErr != nil:
			t.Fatalf("OpenFile+CheckSorted accept an image ReadSubgraph+CheckSorted refuse: %v", readErr)
		case fileErr == nil:
			if file.K() != g.K || file.NumVertices() != g.NumVertices() {
				t.Fatalf("File K, n = %d, %d; Subgraph %d, %d", file.K(), file.NumVertices(), g.K, g.NumVertices())
			}
			assertSameLookups(t, file, g, probesFor(g))
			unchecked, err := OpenFile(bytes.NewReader(image), int64(len(image)))
			if err != nil {
				t.Fatal(err)
			}
			assertSameLookups(t, unchecked, g, probesFor(g))
		case readErr == nil:
			if int64(len(image)) == SerializedSize(g.NumVertices()) {
				t.Fatalf("ReadSubgraph+CheckSorted accept an exact-size image OpenFile+CheckSorted refuse: %v", fileErr)
			}
		}
	})
}
