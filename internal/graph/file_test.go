package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
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
// 0 never fails). The ranges of a split check call it at once.
type countingReaderAt struct {
	r      io.ReaderAt
	mu     sync.Mutex
	calls  int
	failAt int
}

var errInjectedRead = errors.New("injected read failure")

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.calls++
	fail := c.calls == c.failAt
	c.mu.Unlock()
	if fail {
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

// geometry returns how many records a page holds and how many pages a
// CheckSorted block holds in a file of k-mers of length k whose counts fit
// in a byte, as sortedImage writes them.
func geometry(t testing.TB, k int) (pageRecords, blockPages int) {
	_, image := sortedImage(t, 1, 1, k)
	f := openImages(t, [][]byte{image})[0]
	return f.pageRecords, checkBlockBytes / (f.pageRecords * f.layout.size())
}

// TestFileLookupMatchesSubgraph: for sizes around every page boundary (85
// records of 48 bytes, 170 of 24, 256 of 16) and past two check blocks (of
// 24-byte records; of 16-byte ones too without -short), at
// one key word and at two, checked and unchecked, the in-place reader
// answers exactly as the decoded graph does — for every present k-mer, its
// neighbours, keys outside the graph's range and keys with a non-zero high
// word — within the documented number of reads.
func TestFileLookupMatchesSubgraph(t *testing.T) {
	for _, n := range []int{0, 1, 2, 84, 85, 86, 170, 171, 255, 256, 257, 5000, 43790, 131172} {
		if n > 43790 && testing.Short() {
			continue // past two blocks of 16-byte records: ≈ 2 s of lookups
		}
		var graphs [2]*Subgraph
		var images [2][]byte
		for i, k := range []int{27, 40} {
			graphs[i], images[i] = sortedImage(t, int64(n)+1, n, k)
		}
		for _, checked := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/checked=%v", n, checked), func(t *testing.T) {
				for i := range graphs {
					testFileLookup(t, graphs[i], images[i], checked)
				}
			})
		}
	}
}

// testFileLookup is TestFileLookupMatchesSubgraph over one image of g.
func testFileLookup(t *testing.T, g *Subgraph, image []byte, checked bool) {
	n, k := g.NumVertices(), g.K
	cr := &countingReaderAt{r: bytes.NewReader(image)}
	f, err := OpenFile(cr, int64(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	if f.K() != g.K || f.NumVertices() != n {
		t.Fatalf("K, NumVertices = %d, %d; want %d, %d", f.K(), f.NumVertices(), g.K, n)
	}
	pages := f.pages()
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
	keys := probesFor(g)
	for _, km := range keys {
		before := cr.calls
		assertSameLookups(t, f, g, []dna.Kmer{km})
		if reads := cr.calls - before; reads > maxReads || (checked && reads != maxReads) {
			t.Fatalf("k=%d: Lookup(%v) made %d reads, want at most %d", k, km, reads, maxReads)
		}
	}
}

// TestOpenFileRejectsDamage: the header and the exact-size check refuse a
// damaged image before anything is sized from its count.
func TestOpenFileRejectsDamage(t *testing.T) {
	_, image := sortedImage(t, 7, 200, 27)
	rec := (len(image) - headerBytes) / 200
	mutate := func(fn func(b []byte) []byte) []byte { return fn(bytes.Clone(image)) }
	huge := bytes.Clone(image[:headerBytes])
	binary.LittleEndian.PutUint64(huge[6:], 1<<36)
	cases := map[string][]byte{
		"empty":                nil,
		"short header":         image[:headerBytes-1],
		"bad magic":            mutate(func(b []byte) []byte { b[0] = 'Q'; return b }),
		"bad version":          mutate(func(b []byte) []byte { b[4] = 3; return b }),
		"k=0":                  mutate(func(b []byte) []byte { b[5] = 0; return b }),
		"k=64":                 mutate(func(b []byte) []byte { b[5] = 64; return b }),
		"k=200":                mutate(func(b []byte) []byte { b[5] = 200; return b }),
		"count width 0":        mutate(func(b []byte) []byte { b[14] = 0; return b }),
		"count width 3":        mutate(func(b []byte) []byte { b[14] = 3; return b }),
		"count width 8":        mutate(func(b []byte) []byte { b[14] = 8; return b }),
		"wider counts":         mutate(func(b []byte) []byte { b[14] = 2; return b }),
		"version 1":            mutate(func(b []byte) []byte { b[4] = 1; return b }),
		"truncated one byte":   image[:len(image)-1],
		"truncated one record": image[:len(image)-rec],
		"padded one byte":      append(bytes.Clone(image), 0),
		"padded one record":    append(bytes.Clone(image), make([]byte, rec)...),
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
	_, image := sortedImage(t, 8, 3*readStartVertices, 27)
	rec := (len(image) - headerBytes) / (3 * readStartVertices)
	binary.LittleEndian.PutUint64(image[6:], 1<<36)
	for _, in := range [][]byte{image[:headerBytes], image} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadSubgraph(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		wantErr := fmt.Sprintf("vertex %d", (len(in)-headerBytes)/rec)
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
	pageRecords, blockPages := geometry(t, 27)
	g, image := sortedImage(t, 9, blockPages*pageRecords+10, 27) // just past one block
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

// TestFileCheckSortedIndex: the check reports disorder — equal neighbours
// included — at the vertex index the decoded check reports, also when the
// pair straddles a page boundary, a block boundary or the boundary between
// two of the ranges checked at once, at every range count from 1 to 8 for
// one-word keys and at 1, 2 and 5 for two-word keys; and it keeps no index
// of a file it refused.
func TestFileCheckSortedIndex(t *testing.T) {
	testFileCheckSortedIndex(t, 27, []int{1, 2, 3, 4, 5, 6, 7, 8})
	testFileCheckSortedIndex(t, 40, []int{1, 2, 5}) // two key words
}

// testFileCheckSortedIndex is TestFileCheckSortedIndex at one k, over the
// given range counts.
func testFileCheckSortedIndex(t *testing.T, k int, rangeCounts []int) {
	pageRecords, checkBlockPages := geometry(t, k)
	n := 2*checkBlockPages*pageRecords + 100 // two blocks and more in one range
	g, image := sortedImage(t, 10, n, k)
	pages := (n + pageRecords - 1) / pageRecords
	rec, keyBytes := (len(image)-headerBytes)/n, 8*(1+k/33)
	off := func(i int) int { return headerBytes + i*rec }
	key := func(i int) []byte { return image[off(i) : off(i)+keyBytes] }
	for _, ranges := range rangeCounts {
		at := map[int]bool{1: true, 2: true, pageRecords: true, pageRecords + 1: true, n - 1: true}
		for r := 0; r < ranges; r++ {
			start, end := pages*r/ranges*pageRecords, pages*(r+1)/ranges*pageRecords
			for first := start; first < min(end, n); first += checkBlockPages / ranges * pageRecords {
				at[first], at[first+1] = true, true
			}
		}
		delete(at, 0)
		for i := range at {
			for _, duplicate := range []bool{false, true} {
				vs, was := g.Vertices, [2]dna.Kmer{g.Vertices[i-1].Kmer, g.Vertices[i].Kmer}
				prev, this := bytes.Clone(key(i-1)), bytes.Clone(key(i))
				if duplicate {
					vs[i].Kmer = vs[i-1].Kmer
					copy(key(i), prev)
				} else {
					vs[i-1].Kmer, vs[i].Kmer = vs[i].Kmer, vs[i-1].Kmer
					copy(key(i-1), this)
					copy(key(i), prev)
				}
				f, err := OpenFile(bytes.NewReader(image), int64(len(image)))
				if err != nil {
					t.Fatal(err)
				}
				want := g.CheckSorted()
				got := f.checkSorted(ranges)
				if !errors.Is(got, ErrUnsorted) || got.Error() != want.Error() {
					t.Errorf("%d ranges, disorder at %d (duplicate=%v): File.CheckSorted = %v, Subgraph.CheckSorted = %v", ranges, i, duplicate, got, want)
				}
				if f.pageKeys != nil {
					t.Errorf("%d ranges, disorder at %d: a refused file kept page keys", ranges, i)
				}
				vs[i-1].Kmer, vs[i].Kmer = was[0], was[1]
				copy(key(i-1), prev)
				copy(key(i), this)
			}
		}
		// Disorder in every range at once is reported at the lowest index.
		if ranges > 1 {
			bad := bytes.Clone(image)
			for r := ranges - 1; r >= 1; r-- {
				i := pages*r/ranges*pageRecords + r
				copy(bad[off(i):off(i)+keyBytes], key(i-1))
			}
			f, err := OpenFile(bytes.NewReader(bad), int64(len(bad)))
			if err != nil {
				t.Fatal(err)
			}
			first := pages/ranges*pageRecords + 1
			if err := f.checkSorted(ranges); !errors.Is(err, ErrUnsorted) || err.Error() != fmt.Sprintf("%v: vertex %d", ErrUnsorted, first) {
				t.Errorf("%d ranges, disorder in each: err = %v, want vertex %d", ranges, err, first)
			}
		}
		// The intact file passes with every page's first k-mer indexed.
		f, err := OpenFile(bytes.NewReader(image), int64(len(image)))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.checkSorted(ranges); err != nil {
			t.Fatalf("%d ranges: %v", ranges, err)
		}
		if len(f.pageKeys) != pages {
			t.Fatalf("%d ranges: %d page keys for %d pages", ranges, len(f.pageKeys), pages)
		}
		for p, km := range f.pageKeys {
			if km != g.Vertices[p*pageRecords].Kmer {
				t.Fatalf("%d ranges: page %d indexed under %v, its first k-mer is %v", ranges, p, km, g.Vertices[p*pageRecords].Kmer)
			}
		}
	}
}

// FuzzOpenFile holds the two readers of the PHDG format to each other on
// arbitrary images of either version, the in-place reader's order check
// split into 1 to 8 page ranges as the input says: what the in-place reader accepts the decoding reader
// accepts and answers identically; what only the decoding reader accepts has
// trailing bytes (the one deliberate difference); and neither sizes an
// allocation from the header alone.
func FuzzOpenFile(f *testing.F) {
	for _, n := range []int{0, 1, 85, 86, 300} {
		_, image := sortedImage(f, int64(n), n, 33)
		f.Add(image, uint8(n))
		f.Add(image[:len(image)/2], uint8(1))
		f.Add(append(bytes.Clone(image), 1, 2, 3), uint8(2))
		if n > 1 {
			rec := (len(image) - headerBytes) / n
			swapped := bytes.Clone(image)
			copy(swapped[headerBytes:], image[headerBytes+rec:headerBytes+2*rec])
			copy(swapped[headerBytes+rec:], image[headerBytes:headerBytes+rec])
			f.Add(swapped, uint8(n))
		}
	}
	huge := []byte("PHDG\x01\x1b\x00\x00\x00\x00\x10\x00\x00\x00")
	f.Add(huge, uint8(3))
	for i, img := range formatImages(f) {
		f.Add(img, uint8(i))
	}
	f.Fuzz(func(t *testing.T, image []byte, ranges uint8) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		file, fileErr := OpenFile(bytes.NewReader(image), int64(len(image)))
		if fileErr == nil {
			fileErr = file.checkSorted(1 + int(ranges%8))
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
			if int64(len(image)) == imageSize(image, g.NumVertices()) {
				t.Fatalf("ReadSubgraph+CheckSorted accept an exact-size image OpenFile+CheckSorted refuse: %v", fileErr)
			}
		}
	})
}

// BenchmarkFileCheckSorted checks a 23.5 MB graph, parahashd's cold open of
// a serve-sized job, in 1, 2 and 4 page ranges at once.
func BenchmarkFileCheckSorted(b *testing.B) {
	_, image := sortedImage(b, 11, 490_000, 27)
	for _, ranges := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranges=%d", ranges), func(b *testing.B) {
			b.SetBytes(int64(len(image)))
			for i := 0; i < b.N; i++ {
				f, err := OpenFile(bytes.NewReader(image), int64(len(image)))
				if err == nil {
					err = f.checkSorted(ranges)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
