package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"parahash/internal/dna"
)

// writeV1 is the version-1 writer, kept as the oracle the compatibility
// tests make old files with: a 14-byte header and 48-byte records, Hi, Lo
// and eight 4-byte counts.
func writeV1(g *Subgraph) []byte {
	out := append([]byte("PHDG"), 1, byte(g.K))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(g.Vertices)))
	for _, v := range g.Vertices {
		out = binary.LittleEndian.AppendUint64(out, v.Kmer.Hi)
		out = binary.LittleEndian.AppendUint64(out, v.Kmer.Lo)
		for _, c := range v.Counts {
			out = binary.LittleEndian.AppendUint32(out, c)
		}
	}
	return out
}

// imageSize is the exact size of an image of n vertices with image's header.
func imageSize(image []byte, n int) int64 {
	h, err := readHeader(bytes.NewReader(image), subgraphFile)
	if err != nil {
		return -1
	}
	return h.bytes + int64(n)*int64(h.layout.size())
}

// widths are the largest counts that make a file 1, 2 and 4 bytes wide.
var widths = []struct {
	bytes int
	max   uint32
}{{1, 255}, {2, 65535}, {4, 1<<32 - 1}}

// widened returns g sorted with one count of one vertex raised to largest,
// so its count width is countWidth(largest).
func widened(g *Subgraph, largest uint32) *Subgraph {
	g.Sort()
	if len(g.Vertices) > 0 {
		g.Vertices[len(g.Vertices)/2].Counts[3] = largest
	}
	return g
}

// largestCount is the largest of vs' counts.
func largestCount(vs []Vertex) uint32 {
	var largest uint32
	for _, v := range vs {
		largest = max(largest, slices.Max(v.Counts[:]))
	}
	return largest
}

// formatImages are small images of every kind a reader meets: both versions
// at every count width and both key widths, a version-1 k ≤ 32 record with
// its high word set, and headers whose k is out of range.
func formatImages(t testing.TB) [][]byte {
	var images [][]byte
	for _, k := range []int{27, 33} {
		for _, w := range widths {
			g := widened(&Subgraph{K: k, Vertices: randomVertices(int64(k)+int64(w.bytes), 12, k)}, w.max)
			images = append(images, image(t, g), writeV1(g))
		}
	}
	hi := writeV1(widened(&Subgraph{K: 27, Vertices: randomVertices(5, 4, 27)}, 1))
	hi[v1HeaderBytes+2*v1RecordBytes] = 1 // vertex 2's Hi
	images = append(images, hi)
	for _, k := range []byte{0, 64, 200} {
		v1 := writeV1(&Subgraph{K: 27, Vertices: randomVertices(6, 3, 27)})
		v1[5] = k
		v2 := image(t, &Subgraph{K: 27, Vertices: randomVertices(6, 3, 27)})
		v2[5] = k
		images = append(images, v1, v2)
	}
	return images
}

// TestVersion1ReadsLikeVersion2: a graph written by the version-1 oracle
// and by Write — at every count width, k from 1 to 63 — decodes to the
// graph, answers every lookup alike once checked, and merges on its own into
// Write's bytes.
func TestVersion1ReadsLikeVersion2(t *testing.T) {
	for _, k := range []int{1, 27, 32, 33, 63} {
		for _, w := range widths {
			n := 300
			if k == 1 {
				n = 2 // A and C: every canonical 1-mer
			}
			g := widened(&Subgraph{K: k, Vertices: randomVertices(int64(k), n, k)}, w.max)
			v2 := image(t, g)
			if got, want := len(v2), headerBytes+n*8*(1+k/33+w.bytes); got != want || int(v2[14]) != w.bytes {
				t.Fatalf("k=%d width %d: %d bytes with width byte %d, want %d bytes", k, w.bytes, got, v2[14], want)
			}
			for version, img := range map[int][]byte{1: writeV1(g), 2: v2} {
				name := fmt.Sprintf("k=%d width %d version %d", k, w.bytes, version)
				got, err := ReadSubgraph(bytes.NewReader(img))
				if err != nil || !got.Equal(g) {
					t.Fatalf("%s: ReadSubgraph: %v, or the graph differs", name, err)
				}
				f, err := OpenFile(bytes.NewReader(img), int64(len(img)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := f.CheckSorted(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameLookups(t, f, g, probesFor(g))
				var merged bytes.Buffer
				if _, _, err := MergeFiles(k, []Source{bytes.NewReader(img)}, &merged); err != nil || !bytes.Equal(merged.Bytes(), v2) {
					t.Fatalf("%s: MergeFiles: %v, or its bytes are not Write's", name, err)
				}
			}
		}
	}
}

// TestMergeFilesMixedVersions: over four disjoint sources, any of them
// version 1, at every count width and both key widths and in one to three
// ranges, MergeFiles writes the bytes of an all-version-2 merge, which are
// Merge + Write's.
func TestMergeFilesMixedVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, k := range []int{27, 40} {
		for _, w := range widths {
			subs := dealVertices(rng, k, randomVertices(int64(k)+int64(w.bytes), 900, k), []int{300, 0, 400, 200})
			widened(subs[3], w.max)
			whole, err := Merge(k, subs...)
			if err != nil {
				t.Fatal(err)
			}
			want := image(t, whole)
			for mask := 0; mask < 1<<len(subs); mask++ {
				images := make([][]byte, len(subs))
				for i, s := range subs {
					if images[i] = image(t, s); mask&(1<<i) != 0 {
						images[i] = writeV1(s)
					}
				}
				name := fmt.Sprintf("k=%d width %d version-1 sources %04b", k, w.bytes, mask)
				for ranges := 1; ranges <= 3; ranges++ {
					got, _, _, err := mergeFilesOf(k, images, ranges)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s, %d ranges: %v, or the bytes are not Merge + Write's", name, ranges, err)
					}
				}
			}
		}
	}
}

// TestHeaderKOutOfRange: a header of either version whose k is 0 or above
// dna.MaxK is ErrBadFormat to every reader, before any k-mer is decoded.
func TestHeaderKOutOfRange(t *testing.T) {
	for _, k := range []byte{0, 64, 200} {
		g := &Subgraph{K: 27, Vertices: randomVertices(6, 3, 27)}
		for version, img := range map[int][]byte{1: writeV1(g), 2: image(t, g)} {
			img[5] = k
			if _, err := ReadSubgraph(bytes.NewReader(img)); !errors.Is(err, ErrBadFormat) {
				t.Errorf("version %d k=%d: ReadSubgraph err = %v", version, k, err)
			}
			if _, err := OpenFile(bytes.NewReader(img), int64(len(img))); !errors.Is(err, ErrBadFormat) {
				t.Errorf("version %d k=%d: OpenFile err = %v", version, k, err)
			}
			if _, _, err := MergeFiles(int(k), []Source{bytes.NewReader(img)}, io.Discard); !errors.Is(err, ErrBadFormat) {
				t.Errorf("version %d k=%d: MergeFiles err = %v", version, k, err)
			}
		}
	}
}

// TestVersion1HighWordRefused: a version-1 record at k ≤ 32 whose high key
// word is set — room a version-2 record does not have — is ErrBadFormat to
// every reader that decodes it, not a k-mer silently cut to 64 bits.
func TestVersion1HighWordRefused(t *testing.T) {
	g := &Subgraph{K: 27, Vertices: randomVertices(7, 2000, 27)}
	g.Sort()
	for _, at := range []int{0, 1, 1000, 1999} {
		img := writeV1(g)
		img[v1HeaderBytes+at*v1RecordBytes+7] = 0x80 // Hi's top byte
		if _, err := ReadSubgraph(bytes.NewReader(img)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("vertex %d: ReadSubgraph err = %v", at, err)
		}
		f, err := OpenFile(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CheckSorted(); !errors.Is(err, ErrBadFormat) {
			t.Errorf("vertex %d: CheckSorted err = %v", at, err)
		}
		for ranges := 1; ranges <= 3; ranges++ {
			if _, _, _, err := mergeFilesOf(27, [][]byte{img}, ranges); !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrUnsorted) {
				t.Errorf("vertex %d, %d ranges: MergeFiles err = %v", at, ranges, err)
			}
		}
	}
}

// TestWriteRefusesWhatItCannotEncode: a k outside 1..dna.MaxK, or a k ≤ 32
// k-mer with its high word set, is an error from Write, not a file no reader
// takes or one that lost a word.
func TestWriteRefusesWhatItCannotEncode(t *testing.T) {
	for _, g := range []*Subgraph{
		{K: 0},
		{K: dna.MaxK + 1},
		{K: 27, Vertices: []Vertex{{Kmer: dna.Kmer{Hi: 1}}}},
	} {
		if err := g.Write(io.Discard); err == nil {
			t.Errorf("k=%d, %d vertices: Write accepted it", g.K, len(g.Vertices))
		}
	}
}

// FuzzReadSubgraph: on any image ReadSubgraph never panics, fails only with
// ErrBadFormat, and what it accepts Write writes back to an image it reads
// as the same graph — at the narrowest width, so no larger than a version-2
// original.
func FuzzReadSubgraph(f *testing.F) {
	for _, img := range formatImages(f) {
		f.Add(img)
		f.Add(img[:len(img)-1])
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		g, err := ReadSubgraph(bytes.NewReader(img))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := g.Write(&again); err != nil {
			t.Fatalf("Write of a graph ReadSubgraph accepted: %v", err)
		}
		back, err := ReadSubgraph(bytes.NewReader(again.Bytes()))
		if err != nil || !back.Equal(g) {
			t.Fatalf("write → read is not the identity: %v", err)
		}
		if img[4] == formatVersion && int64(again.Len()) > imageSize(img, g.NumVertices()) {
			t.Fatalf("Write wrote %d bytes of a %d-byte version-2 graph", again.Len(), imageSize(img, g.NumVertices()))
		}
	})
}
