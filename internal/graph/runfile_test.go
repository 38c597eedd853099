package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"

	"parahash/internal/dna"
)

func randomRunVertices(rng *rand.Rand, n int, keySpace uint64) []Vertex {
	vs := make([]Vertex, n)
	for i := range vs {
		vs[i].Kmer = dna.Kmer{Lo: rng.Uint64() % keySpace}
		for j := range vs[i].Counts {
			vs[i].Counts[j] = uint32(rng.Intn(5))
		}
	}
	return vs
}

// writeRun aggregates a sorted-deduped copy of vs into a serialized run.
func writeRun(t testing.TB, k int, vs []Vertex) ([]byte, *Subgraph) {
	t.Helper()
	agg := mergeOracle(k, &Subgraph{K: k, Vertices: vs})
	return runImage(t, agg), agg
}

// runImage is the version-2 run of g's sorted vertices at the narrowest
// width that holds them. It holds the writer to its Size.
func runImage(t testing.TB, g *Subgraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw, err := NewNarrowRunWriter(&buf, g.K, int64(len(g.Vertices)), largestCount(g.Vertices))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Vertices {
		if err := rw.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if int64(len(data)) != rw.Size() {
		t.Fatalf("run writer wrote %d bytes, its Size says %d", len(data), rw.Size())
	}
	if foot := binary.LittleEndian.Uint32(data[len(data)-runFooterBytes:]); foot != rw.Sum32() {
		t.Fatalf("run footer %08x, writer summed %08x", foot, rw.Sum32())
	}
	return data
}

// writeRunV1 is the version-1 run writer, kept as the oracle the
// compatibility tests make old runs with: the version-1 PHDG image under the
// run magic — a 14-byte header and 48-byte records, Hi, Lo and eight 4-byte
// counts — then the CRC-32 of both.
func writeRunV1(g *Subgraph) []byte {
	out := writeV1(g)
	copy(out, "PHSR")
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// readRun reads every vertex of a run image, requiring the footer to verify.
func readRun(t testing.TB, data []byte) []Vertex {
	t.Helper()
	got, err := mergeOne(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// mergeOne is MergeRuns over the one run r holds: its vertices, and nil
// only once the footer has verified.
func mergeOne(r io.Reader) ([]Vertex, error) {
	rr, err := NewRunReader(r)
	if err != nil {
		return nil, err
	}
	var got []Vertex
	err = MergeRuns([]*RunReader{rr}, func(v Vertex) error { got = append(got, v); return nil })
	return got, err
}

func TestRunRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 9
	data, want := writeRun(t, k, randomRunVertices(rng, 500, 1<<12))
	// Counts below 5 each, summed over duplicates: 1-byte counts, 8-byte keys.
	if size := headerBytes + 16*len(want.Vertices) + runFooterBytes; len(data) != size {
		t.Fatalf("size %d, want %d", len(data), size)
	}
	rr, err := NewRunReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rr.K() != k || rr.Count() != int64(len(want.Vertices)) {
		t.Fatalf("header k=%d count=%d", rr.K(), rr.Count())
	}
	got := readRun(t, data)
	if len(got) != len(want.Vertices) {
		t.Fatalf("read %d vertices, want %d", len(got), len(want.Vertices))
	}
	for i := range got {
		if got[i] != want.Vertices[i] {
			t.Fatalf("vertex %d: %+v, want %+v", i, got[i], want.Vertices[i])
		}
	}
	n, crc, err := VerifyRun(bytes.NewReader(data), k)
	if err != nil || n != int64(len(want.Vertices)) {
		t.Fatalf("VerifyRun = %d, %v", n, err)
	}
	if foot := binary.LittleEndian.Uint32(data[len(data)-4:]); crc != foot {
		t.Fatalf("VerifyRun crc %08x, footer %08x", crc, foot)
	}
}

// TestRunVersion1ReadsLikeVersion2: at both key widths and every count
// width, a version-2 run has the header's width byte, records of its layout,
// and reads back the same vertices as the version-1 run of the same graph.
func TestRunVersion1ReadsLikeVersion2(t *testing.T) {
	for _, k := range []int{27, 40} {
		for _, w := range widths {
			g := widened(&Subgraph{K: k, Vertices: randomVertices(int64(k)*int64(w.bytes), 300, k)}, w.max)
			v1, v2 := writeRunV1(g), runImage(t, g)
			if v2[4] != 2 || int(v2[14]) != w.bytes {
				t.Errorf("k=%d width %d: header version %d, width %d", k, w.bytes, v2[4], v2[14])
			}
			if size := headerBytes + len(g.Vertices)*8*(keyWords(k)+w.bytes) + runFooterBytes; len(v2) != size {
				t.Errorf("k=%d width %d: %d bytes, want %d", k, w.bytes, len(v2), size)
			}
			for version, data := range map[int][]byte{1: v1, 2: v2} {
				if got := readRun(t, data); !slices.Equal(got, g.Vertices) {
					t.Errorf("k=%d width %d: version %d reads back other vertices", k, w.bytes, version)
				}
				if n, _, err := VerifyRun(bytes.NewReader(data), k); err != nil || n != int64(len(g.Vertices)) {
					t.Errorf("k=%d width %d: version %d: VerifyRun = %d, %v", k, w.bytes, version, n, err)
				}
			}
		}
	}
}

// TestMergeRunsMixedVersions: merging runs of either version, in every mix,
// gives what merging their version-1 images gives — and what Merge gives.
func TestMergeRunsMixedVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{27, 40} {
		for _, w := range widths {
			// Three runs over one pool of k-mers, so they share vertices.
			pool := randomVertices(int64(k)+int64(w.bytes), 400, k)
			runs := make([]*Subgraph, 3)
			for r := range runs {
				g := &Subgraph{K: k}
				for _, v := range pool {
					if rng.Intn(2) == 0 {
						g.Vertices = append(g.Vertices, v)
					}
				}
				runs[r] = widened(g, w.max/2)
			}
			want, err := Merge(k, runs...)
			if err != nil {
				t.Fatal(err)
			}
			merge := func(version func(int) int) []Vertex {
				readers := make([]*RunReader, len(runs))
				for r, g := range runs {
					data := runImage(t, g)
					if version(r) == 1 {
						data = writeRunV1(g)
					}
					if readers[r], err = NewRunReader(bytes.NewReader(data)); err != nil {
						t.Fatal(err)
					}
				}
				var got []Vertex
				if err := MergeRuns(readers, func(v Vertex) error { got = append(got, v); return nil }); err != nil {
					t.Fatal(err)
				}
				return got
			}
			v1Only := merge(func(int) int { return 1 })
			if !slices.Equal(v1Only, want.Vertices) {
				t.Fatalf("k=%d width %d: version-1 merge differs from Merge", k, w.bytes)
			}
			for mix := 1; mix < 1<<len(runs); mix++ {
				got := merge(func(r int) int { return 1 + (mix>>r)&1 })
				if !slices.Equal(got, v1Only) {
					t.Errorf("k=%d width %d: mix %03b merges differently from version 1 only", k, w.bytes, mix)
				}
			}
		}
	}
}

// TestRunWriterRefusesWhatItCannotEncode: a count above the declared largest,
// a high word at k ≤ 32 and a k outside 1..dna.MaxK are errors, not
// silently truncated records.
func TestRunWriterRefusesWhatItCannotEncode(t *testing.T) {
	rw, err := NewNarrowRunWriter(io.Discard, 27, 2, 255)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Add(Vertex{Kmer: dna.Kmer{Lo: 1}, Counts: [8]uint32{256}}); err == nil {
		t.Error("a count of 256 accepted under a declared largest of 255")
	}
	if err := rw.Add(Vertex{Kmer: dna.Kmer{Hi: 1, Lo: 1}}); err == nil {
		t.Error("a k=27 k-mer with its high word set accepted")
	}
	for _, k := range []int{0, dna.MaxK + 1} {
		if _, err := NewRunWriter(io.Discard, k, 0); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestRunCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const k = 9
	data, _ := writeRun(t, k, randomRunVertices(rng, 200, 1<<12))

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, err := VerifyRun(bytes.NewReader(flipped), k); !errors.Is(err, ErrCorruptRun) {
		t.Errorf("bit flip: err = %v, want ErrCorruptRun", err)
	}
	if _, _, err := VerifyRun(bytes.NewReader(data[:len(data)-7]), k); !errors.Is(err, ErrCorruptRun) {
		t.Errorf("truncation: err = %v, want ErrCorruptRun", err)
	}
	if _, _, err := VerifyRun(bytes.NewReader(data), k+1); !errors.Is(err, ErrCorruptRun) {
		t.Errorf("wrong k: err = %v, want ErrCorruptRun", err)
	}
	if _, err := NewRunReader(bytes.NewReader([]byte("PHDGxxxx"))); !errors.Is(err, ErrCorruptRun) {
		t.Errorf("bad magic: err = %v, want ErrCorruptRun", err)
	}
}

func TestRunWriterEnforcesOrderAndCount(t *testing.T) {
	var buf bytes.Buffer
	rw, err := NewRunWriter(&buf, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Add(Vertex{Kmer: dna.Kmer{Lo: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := rw.Add(Vertex{Kmer: dna.Kmer{Lo: 5}}); err == nil {
		t.Error("duplicate k-mer accepted")
	}
	if err := rw.Finish(); err == nil {
		t.Error("short run finished without error")
	}
}

// TestMergeRunsMatchesMergeOracle is the central equivalence check of the
// out-of-core path: merging spilled runs must reproduce graph.Merge of the
// same vertex multiset exactly.
func TestMergeRunsMatchesMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const k = 9
	for trial := 0; trial < 20; trial++ {
		nRuns := 1 + rng.Intn(6)
		var all []*Subgraph
		var readers []*RunReader
		for r := 0; r < nRuns; r++ {
			// A narrow key space guarantees cross-run duplicate k-mers.
			data, agg := writeRun(t, k, randomRunVertices(rng, rng.Intn(300), 1<<8))
			all = append(all, agg)
			rr, err := NewRunReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			readers = append(readers, rr)
		}
		want, err := Merge(k, all...)
		if err != nil {
			t.Fatal(err)
		}
		got := &Subgraph{K: k}
		if err := MergeRuns(readers, func(v Vertex) error {
			got.Vertices = append(got.Vertices, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: merged runs differ from Merge oracle (%d vs %d vertices)",
				trial, len(got.Vertices), len(want.Vertices))
		}
	}
}

// chunkReader hands out at most n bytes per Read, so block refills land
// mid-record and mid-footer.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestRunReaderChecksumsByBlock: the reader checksums whole windows as it
// reads them, not records as it hands them out, so the contract is pinned
// across window boundaries and short reads — every vertex back, success
// only once the footer has verified, and VerifyRun's CRC equal to the
// writer's.
func TestRunReaderChecksumsByBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const k = 27
	data, agg := writeRun(t, k, randomRunVertices(rng, 10000, 1<<40))
	rr, err := NewRunReader(bytes.NewReader(data))
	if err != nil || rr.c.layout.size() != 16 {
		t.Fatalf("the test needs 16-byte version-2 records; err = %v", err)
	}
	// runImage held the writer's Sum32 to the footer.
	writerSum := binary.LittleEndian.Uint32(data[len(data)-runFooterBytes:])
	if len(data) < 4<<15 {
		t.Fatalf("run is %d bytes; the test needs several 32 KiB blocks", len(data))
	}
	for _, chunk := range []int{1, 15, 16, 17, 47, 48, 49, 1 << 15, 1<<15 + 1, len(data)} {
		got, err := mergeOne(&chunkReader{data: data, n: chunk})
		if err != nil || !slices.Equal(got, agg.Vertices) {
			t.Fatalf("chunk %d: %d of %d vertices back, %v", chunk, len(got), len(agg.Vertices), err)
		}
		n, crc, err := VerifyRun(&chunkReader{data: data, n: chunk}, k)
		if err != nil || n != int64(len(agg.Vertices)) || crc != writerSum {
			t.Fatalf("chunk %d: VerifyRun = %d, %08x, %v; the footer holds %08x", chunk, n, crc, err, writerSum)
		}
		// A flipped bit in the last block and a torn footer surface at the
		// end of the stream, never as io.EOF.
		bad := append([]byte(nil), data...)
		bad[len(bad)-runFooterBytes-5] ^= 0x01
		if _, _, err := VerifyRun(&chunkReader{data: bad, n: chunk}, k); !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("chunk %d: flipped bit: err = %v, want ErrCorruptRun", chunk, err)
		}
		if _, _, err := VerifyRun(&chunkReader{data: data[:len(data)-2], n: chunk}, k); !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("chunk %d: torn footer: err = %v, want ErrCorruptRun", chunk, err)
		}
	}
}

// verifyRunReference is VerifyRun over a whole buffer: the header of either
// version, one checksum over header and records, one linear pass for the
// order and for a version-1 high word at k ≤ 32.
func verifyRunReference(data []byte, k int) (int64, uint32, bool) {
	if len(data) < v1HeaderBytes || [4]byte(data[:4]) != runMagic {
		return 0, 0, false
	}
	count := binary.LittleEndian.Uint64(data[6:])
	if count > 1<<40 || data[5] < 1 || data[5] > dna.MaxK || (k > 0 && int(data[5]) != k) {
		return 0, 0, false
	}
	head, l := uint64(v1HeaderBytes), v1Layout
	switch data[4] {
	case 1:
	case 2:
		if len(data) < headerBytes || (data[14] != 1 && data[14] != 2 && data[14] != 4) {
			return 0, 0, false
		}
		head, l = headerBytes, recordLayout{keyWords: keyWords(int(data[5])), countBytes: int(data[14])}
	default:
		return 0, 0, false
	}
	size := uint64(l.size())
	body := head + count*size
	if uint64(len(data)) < body+runFooterBytes {
		return 0, 0, false
	}
	crc := crc32.ChecksumIEEE(data[:body])
	if binary.LittleEndian.Uint32(data[body:]) != crc {
		return 0, 0, false
	}
	var prev Vertex
	for i := uint64(0); i < count; i++ {
		var v Vertex
		l.get(&v, data[head+i*size:])
		if (i > 0 && !prev.Kmer.Less(v.Kmer)) || (v.Kmer.Hi != 0 && data[5] <= 32) {
			return 0, 0, false
		}
		prev = v
	}
	return int64(count), crc, true
}

// FuzzVerifyRun holds the streaming, block-checksummed VerifyRun to the
// whole-buffer reference over arbitrary PHSR images, read in arbitrary
// chunk sizes: same verdict, same count, same checksum, and every refusal
// typed ErrCorruptRun.
func FuzzVerifyRun(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	// Seeds stay small (the engine minimises every input it keeps); short
	// chunks still put refills mid-record, and TestRunReaderChecksumsByBlock
	// covers runs of several blocks.
	valid, _ := writeRun(f, 27, randomRunVertices(rng, 60, 1<<40))
	small, _ := writeRun(f, 9, randomRunVertices(rng, 20, 1<<12))
	f.Add(valid, uint8(27), uint16(0))
	f.Add(small, uint8(0), uint16(7))
	f.Add(valid[:len(valid)-9], uint8(27), uint16(48))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped, uint8(27), uint16(1000))
	miscounted := append([]byte(nil), small...)
	miscounted[6]++
	f.Add(miscounted, uint8(9), uint16(3))
	f.Add(small, uint8(10), uint16(0))
	// Both versions at every count width and both key widths, then a
	// version-2 header with a width of 3 and one with a k of 64.
	for _, k := range []int{27, 40} {
		for _, w := range widths {
			g := widened(&Subgraph{K: k, Vertices: randomVertices(int64(k)+int64(w.bytes), 12, k)}, w.max)
			f.Add(runImage(f, g), uint8(k), uint16(w.bytes*5))
			f.Add(writeRunV1(g), uint8(0), uint16(0))
		}
	}
	badWidth := bytes.Clone(valid)
	badWidth[14] = 3
	f.Add(badWidth, uint8(27), uint16(0))
	badK := bytes.Clone(valid)
	badK[5] = 64
	f.Add(badK, uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, chunk uint16) {
		var r io.Reader = bytes.NewReader(data)
		if chunk > 0 {
			r = &chunkReader{data: data, n: int(chunk)}
		}
		n, crc, err := VerifyRun(r, int(k))
		wantN, wantCRC, ok := verifyRunReference(data, int(k))
		if !ok {
			if !errors.Is(err, ErrCorruptRun) {
				t.Fatalf("reference rejects the image, VerifyRun = %d, %08x, %v", n, crc, err)
			}
			return
		}
		if err != nil || n != wantN || crc != wantCRC {
			t.Fatalf("VerifyRun = %d, %08x, %v; reference %d, %08x", n, crc, err, wantN, wantCRC)
		}
	})
}

// TestRunReaderKOutOfRange: a run header whose k is 0 or above dna.MaxK is
// ErrCorruptRun, whatever k the caller asks for.
func TestRunReaderKOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data, _ := writeRun(t, 27, randomRunVertices(rng, 3, 1<<40))
	for _, k := range []byte{0, 64, 200} {
		bad := bytes.Clone(data)
		bad[5] = k
		if _, err := NewRunReader(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptRun) {
			t.Errorf("k=%d: NewRunReader err = %v, want ErrCorruptRun", k, err)
		}
		if _, _, err := VerifyRun(bytes.NewReader(bad), 0); !errors.Is(err, ErrCorruptRun) {
			t.Errorf("k=%d: VerifyRun err = %v, want ErrCorruptRun", k, err)
		}
	}
}

// BenchmarkRunWriteRead writes a run of 16 Ki vertices, counts at the 1-byte
// width, and streams it back, at both key widths.
func BenchmarkRunWriteRead(b *testing.B) {
	for _, k := range []int{27, 40} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := &Subgraph{K: k, Vertices: randomVertices(int64(k), 1<<14, k)}
			g.Sort()
			largest := largestCount(g.Vertices)
			var buf bytes.Buffer
			b.ReportAllocs()
			for range b.N {
				buf.Reset()
				rw, err := NewNarrowRunWriter(&buf, k, int64(len(g.Vertices)), largest)
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range g.Vertices {
					if err := rw.Add(v); err != nil {
						b.Fatal(err)
					}
				}
				if err := rw.Finish(); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(rw.Size())
				if _, err := mergeOne(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len())/float64(len(g.Vertices)), "B/vertex")
		})
	}
}
