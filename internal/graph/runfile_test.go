package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
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
	var buf bytes.Buffer
	rw, err := NewRunWriter(&buf, k, int64(len(agg.Vertices)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range agg.Vertices {
		if err := rw.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), agg
}

func TestRunRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 9
	data, want := writeRun(t, k, randomRunVertices(rng, 500, 1<<12))
	if int64(len(data)) != RunSerializedSize(len(want.Vertices)) {
		t.Fatalf("size %d, want %d", len(data), RunSerializedSize(len(want.Vertices)))
	}
	rr, err := NewRunReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rr.K() != k || rr.Count() != int64(len(want.Vertices)) {
		t.Fatalf("header k=%d count=%d", rr.K(), rr.Count())
	}
	var got []Vertex
	for {
		v, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
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

// TestRunReaderChecksumsByBlock: the reader checksums whole blocks as it
// reads them, not records as it hands them out, so the contract is pinned
// across block boundaries and short reads — every vertex back, io.EOF only
// once the footer has verified, and VerifyRun's CRC equal to the writer's.
func TestRunReaderChecksumsByBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const k = 27
	agg := mergeOracle(k, &Subgraph{K: k, Vertices: randomRunVertices(rng, 3000, 1<<40)})
	var buf bytes.Buffer
	rw, err := NewRunWriter(&buf, k, int64(len(agg.Vertices)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range agg.Vertices {
		if err := rw.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 4<<15 {
		t.Fatalf("run is %d bytes; the test needs several 32 KiB blocks", len(data))
	}
	for _, chunk := range []int{1, 47, 48, 49, 1 << 15, 1<<15 + 1, len(data)} {
		rr, err := NewRunReader(&chunkReader{data: data, n: chunk})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range agg.Vertices {
			got, err := rr.Next()
			if err != nil || got != want {
				t.Fatalf("chunk %d: vertex %d = %+v, %v", chunk, i, got, err)
			}
		}
		if _, err := rr.Next(); err != io.EOF {
			t.Fatalf("chunk %d: after the last vertex err = %v, want io.EOF", chunk, err)
		}
		n, crc, err := VerifyRun(&chunkReader{data: data, n: chunk}, k)
		if err != nil || n != int64(len(agg.Vertices)) || crc != rw.Sum32() {
			t.Fatalf("chunk %d: VerifyRun = %d, %08x, %v; writer summed %08x", chunk, n, crc, err, rw.Sum32())
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

// verifyRunReference is VerifyRun over a whole buffer: one checksum over
// header and records, one linear pass for the order.
func verifyRunReference(data []byte, k int) (int64, uint32, bool) {
	if len(data) < runHeaderBytes || [4]byte(data[:4]) != runMagic || data[4] != runFormatVersion {
		return 0, 0, false
	}
	count := binary.LittleEndian.Uint64(data[6:])
	if count > 1<<40 || (k > 0 && int(data[5]) != k) {
		return 0, 0, false
	}
	body := runHeaderBytes + count*VertexRecordBytes
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
		getVertex(&v, data[runHeaderBytes+i*VertexRecordBytes:])
		if i > 0 && !prev.Kmer.Less(v.Kmer) {
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
