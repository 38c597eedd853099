package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
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
func writeRun(t *testing.T, k int, vs []Vertex) ([]byte, *Subgraph) {
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
