package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/msp"
	"parahash/internal/simulate"
)

// buildFromSuperkmers constructs a graph via the MSP edge enumeration with
// a plain map — an independent path from BuildNaive used to cross-check the
// superkmer adjacency semantics.
func buildFromSuperkmers(reads []fastq.Read, k, p int) *Subgraph {
	counts := make(map[dna.Kmer]*[8]uint32)
	for _, rd := range reads {
		for _, sk := range msp.SuperkmersFromRead(nil, rd.Bases, k, p) {
			msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) {
				c := counts[e.Canon]
				if c == nil {
					c = &[8]uint32{}
					counts[e.Canon] = c
				}
				if e.Left != msp.NoBase {
					c[e.Left]++
				}
				if e.Right != msp.NoBase {
					c[4+e.Right]++
				}
			})
		}
	}
	g := &Subgraph{K: k}
	for km, c := range counts {
		g.Vertices = append(g.Vertices, Vertex{Kmer: km, Counts: *c})
	}
	g.Sort()
	return g
}

func datasetReads(t *testing.T, p simulate.Profile) []fastq.Read {
	t.Helper()
	d, err := simulate.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return d.Reads
}

func TestSuperkmerGraphEqualsNaive(t *testing.T) {
	reads := datasetReads(t, simulate.TinyProfile())
	k, p := 27, 11
	naive := BuildNaive(reads, k)
	viaMSP := buildFromSuperkmers(reads, k, p)
	if !naive.Equal(viaMSP) {
		t.Fatalf("superkmer-based graph differs from naive: %d vs %d vertices",
			viaMSP.NumVertices(), naive.NumVertices())
	}
}

func TestNaiveGraphPaperExample(t *testing.T) {
	// Fig. 1 of the paper: k=5; the kmer TGATG occurs three times across
	// the reads and must merge into one vertex with edge multiplicities
	// 2 (to GATGG) and 1 (to GATGA).
	reads := []fastq.Read{
		{ID: "r1", Bases: dna.EncodeSeq(nil, "CAATGATGGACC")},
		{ID: "r2", Bases: dna.EncodeSeq(nil, "CCTGATGGAAGC")},
		{ID: "r3", Bases: dna.EncodeSeq(nil, "GGTTGATGACCA")},
	}
	g := BuildNaive(reads, 5)
	km, fwd := dna.KmerFromString("TGATG").Canonical(5)
	v, ok := g.Lookup(km)
	if !ok {
		t.Fatal("vertex TGATG missing")
	}
	// The three instances of TGATG are followed by G, A, G: multiplicity 2
	// to GATGG and 1 to GATGA on the canonical orientation of TGATG.
	sideRight, sideLeft := Right, Left
	gBase, aBase := dna.G, dna.A
	if !fwd {
		sideRight, sideLeft = sideLeft, sideRight
		gBase, aBase = gBase.Complement(), aBase.Complement()
	}
	if got := v.Count(sideRight, gBase); got != 2 {
		t.Errorf("TGATG->GATGG multiplicity = %d, want 2", got)
	}
	if got := v.Count(sideRight, aBase); got != 1 {
		t.Errorf("TGATG->GATGA multiplicity = %d, want 1", got)
	}
	_ = sideLeft
}

func TestNeighbor(t *testing.T) {
	k := 5
	km, _ := dna.KmerFromString("ACGTA").Canonical(k)
	// Right extension by C: ACGTA -> CGTAC.
	want, _ := dna.KmerFromString("CGTAC").Canonical(k)
	if got := Neighbor(km, k, Right, dna.C); got != want {
		t.Errorf("Neighbor right = %s, want %s", got.String(k), want.String(k))
	}
	// Left extension by T: ACGTA -> TACGT.
	want2, _ := dna.KmerFromString("TACGT").Canonical(k)
	if got := Neighbor(km, k, Left, dna.T); got != want2 {
		t.Errorf("Neighbor left = %s, want %s", got.String(k), want2.String(k))
	}
}

func TestVertexAccessors(t *testing.T) {
	v := Vertex{Counts: [8]uint32{1, 0, 0, 2, 0, 5, 0, 0}}
	if v.Multiplicity() != 8 {
		t.Errorf("Multiplicity = %d", v.Multiplicity())
	}
	if v.Degree() != 3 {
		t.Errorf("Degree = %d", v.Degree())
	}
	if v.Count(Left, dna.T) != 2 || v.Count(Right, dna.C) != 5 {
		t.Error("Count indexing wrong")
	}
}

func TestMergeDisjoint(t *testing.T) {
	reads := datasetReads(t, simulate.TinyProfile())
	k, p, np := 27, 11, 7
	full := BuildNaive(reads, k)

	// Split vertices by partition of... build per-partition graphs via MSP.
	parts := make([]map[dna.Kmer]*[8]uint32, np)
	for i := range parts {
		parts[i] = make(map[dna.Kmer]*[8]uint32)
	}
	for _, rd := range reads {
		for _, sk := range msp.SuperkmersFromRead(nil, rd.Bases, k, p) {
			idx := msp.Partition(sk.Minimizer, np)
			msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) {
				c := parts[idx][e.Canon]
				if c == nil {
					c = &[8]uint32{}
					parts[idx][e.Canon] = c
				}
				if e.Left != msp.NoBase {
					c[e.Left]++
				}
				if e.Right != msp.NoBase {
					c[4+e.Right]++
				}
			})
		}
	}
	subs := make([]*Subgraph, np)
	totalVertices := 0
	for i, m := range parts {
		subs[i] = &Subgraph{K: k}
		for km, c := range m {
			subs[i].Vertices = append(subs[i].Vertices, Vertex{Kmer: km, Counts: *c})
		}
		subs[i].Sort()
		totalVertices += subs[i].NumVertices()
	}
	// MSP invariant: partitions hold disjoint vertex sets.
	if totalVertices != full.NumVertices() {
		t.Fatalf("partitions overlap: %d vertices across partitions, %d distinct", totalVertices, full.NumVertices())
	}
	merged, err := Merge(k, subs...)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(full) {
		t.Fatal("merged partitioned graph differs from naive full graph")
	}
}

func TestMergeOverlapping(t *testing.T) {
	k := 5
	km, _ := dna.KmerFromString("ACGTA").Canonical(k)
	a := &Subgraph{K: k, Vertices: []Vertex{{Kmer: km, Counts: [8]uint32{1}}}}
	b := &Subgraph{K: k, Vertices: []Vertex{{Kmer: km, Counts: [8]uint32{2, 3}}}}
	m, err := Merge(k, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 1 || m.Vertices[0].Counts[0] != 3 || m.Vertices[0].Counts[1] != 3 {
		t.Fatalf("overlapping merge wrong: %+v", m.Vertices)
	}
}

func TestMergeKMismatch(t *testing.T) {
	if _, err := Merge(5, &Subgraph{K: 7}); err == nil {
		t.Error("K mismatch accepted")
	}
}

func TestFilterByMultiplicity(t *testing.T) {
	g := &Subgraph{K: 5, Vertices: []Vertex{
		{Counts: [8]uint32{10, 10}},
		{Counts: [8]uint32{1}},
		{Counts: [8]uint32{0, 0, 0, 0, 3}},
	}}
	removed := g.FilterByMultiplicity(3)
	if removed != 1 || g.NumVertices() != 2 {
		t.Fatalf("removed=%d left=%d", removed, g.NumVertices())
	}
}

func TestErrorFilteringRecoversGenomeSize(t *testing.T) {
	// With errors, distinct vertices far exceed the genome size; filtering
	// by multiplicity should collapse most error vertices, leaving roughly
	// the genuine ones (coverage is high, errors are rare per locus).
	p := simulate.TinyProfile()
	p.NumReads = 2000 // deep coverage
	p.ErrorLambda = 1
	reads := datasetReads(t, p)
	g := BuildNaive(reads, 27)
	before := g.NumVertices()
	g.FilterByMultiplicity(6)
	after := g.NumVertices()
	if before <= after {
		t.Fatalf("filtering removed nothing: %d -> %d", before, after)
	}
	genomeKmers := p.GenomeSize - 27 + 1
	if after < genomeKmers*8/10 || after > genomeKmers*12/10 {
		t.Errorf("filtered graph has %d vertices, want ~%d", after, genomeKmers)
	}
}

func TestStats(t *testing.T) {
	reads := datasetReads(t, simulate.TinyProfile())
	g := BuildNaive(reads, 27)
	s := g.ComputeStats()
	if s.DistinctVertices != g.NumVertices() || s.Edges != g.NumEdges() ||
		s.TotalMultiplicity != g.TotalMultiplicity() {
		t.Error("stats disagree with direct accessors")
	}
	if s.DistinctVertices == 0 || s.Edges == 0 {
		t.Error("empty stats on non-trivial dataset")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	reads := datasetReads(t, simulate.TinyProfile())
	g := BuildNaive(reads, 27)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := headerBytes + 16*g.NumVertices(); buf.Len() != want { // k=27, counts below 256
		t.Errorf("serialized %d bytes, want %d", buf.Len(), want)
	}
	got, err := ReadSubgraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Fatal("round trip changed the graph")
	}
}

// callSizes records the size of every Write it receives.
type callSizes struct {
	bytes.Buffer
	sizes []int
}

func (c *callSizes) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// TestWriteBlocks: Write hands the (unbuffered) writer blocks of at least
// 1 MiB — one call for a partition-sized subgraph — and the bytes are the
// record-at-a-time encoding, whatever the block boundaries: 16-byte records
// at k=27 with counts below 256, 48-byte ones at k=40 with full-width
// counts.
func TestWriteBlocks(t *testing.T) {
	for _, c := range []struct{ k, rec, width int }{{27, 16, 1}, {40, 48, 4}} {
		block := writeBlockBytes / c.rec
		for _, n := range []int{0, 1, block - 1, block, block + 1, 3*block + 7} {
			g := &Subgraph{K: c.k, Vertices: make([]Vertex, n)}
			for i := range g.Vertices {
				v := &g.Vertices[i]
				v.Kmer = dna.Kmer{Lo: uint64(i) * 0x9e3779b97f4a7c15}
				v.Counts = [8]uint32{uint32(i), 1, 2, 3, 4, 5, 6, ^uint32(i)}
				if c.width == 1 {
					v.Counts[0], v.Counts[7] = uint32(i)&0xff, 255
				} else {
					v.Kmer.Hi = uint64(i) >> 3
				}
			}
			want := append([]byte("PHDG"), formatVersion, byte(c.k))
			want = binary.LittleEndian.AppendUint64(want, uint64(n))
			if n == 0 {
				want = append(want, 1) // an empty graph is 1 wide
			} else {
				want = append(want, byte(c.width))
			}
			for _, v := range g.Vertices {
				if c.k > 32 {
					want = binary.LittleEndian.AppendUint64(want, v.Kmer.Hi)
				}
				want = binary.LittleEndian.AppendUint64(want, v.Kmer.Lo)
				for _, n := range v.Counts {
					want = binary.LittleEndian.AppendUint32(want, n)[:len(want)+c.width]
				}
			}
			var got callSizes
			if err := g.Write(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("k=%d n=%d: serialized bytes differ from the per-record encoding", c.k, n)
			}
			for i, size := range got.sizes[:len(got.sizes)-1] {
				if size < 1<<20 {
					t.Errorf("k=%d n=%d: Write call %d of %d carried %d bytes, want >= 1 MiB", c.k, n, i, len(got.sizes), size)
				}
			}
		}
	}
}

func TestReadSubgraphErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("PHDG\x03\x05\x00\x00\x00\x00\x00\x00\x00\x00"),     // bad version
		[]byte("PHDG\x01\x05\x01\x00\x00\x00\x00\x00\x00\x00"),     // truncated vertex
		[]byte("PHDG\x02\x05\x00\x00\x00\x00\x00\x00\x00\x00"),     // no width byte
		[]byte("PHDG\x02\x05\x00\x00\x00\x00\x00\x00\x00\x00\x03"), // width 3
		[]byte("PHDG\x02\x05\x01\x00\x00\x00\x00\x00\x00\x00\x01"), // truncated vertex
		[]byte("PHDG\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01"), // k=0
		[]byte("PHDG\x01\x40\x00\x00\x00\x00\x00\x00\x00\x00"),     // k=64
	}
	for i, in := range cases {
		if _, err := ReadSubgraph(bytes.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestLookupSorted(t *testing.T) {
	reads := datasetReads(t, simulate.TinyProfile())
	g := BuildNaive(reads, 27)
	for _, v := range []int{0, len(g.Vertices) / 2, len(g.Vertices) - 1} {
		got, ok := g.Lookup(g.Vertices[v].Kmer)
		if !ok || got != g.Vertices[v] {
			t.Fatalf("Lookup failed for vertex %d", v)
		}
	}
}

func TestUnitigsLinearGenome(t *testing.T) {
	// Error-free, deeply covered reads over a random (nearly repeat-free)
	// genome must compact back into few unitigs whose total length is about
	// the genome length, and the longest one should cover most of it.
	p := simulate.Profile{
		Name: "linear", GenomeSize: 3000, ReadLength: 100, NumReads: 900,
		ErrorLambda: 0, Seed: 99,
	}
	d, err := simulate.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildNaive(d.Reads, 27)
	unitigs := g.Unitigs()
	if len(unitigs) == 0 {
		t.Fatal("no unitigs")
	}
	longest, total := 0, 0
	for _, u := range unitigs {
		total += len(u)
		if len(u) > longest {
			longest = len(u)
		}
	}
	if longest < p.GenomeSize*7/10 {
		t.Errorf("longest unitig %d bp, want >= 70%% of genome %d", longest, p.GenomeSize)
	}
	// The longest unitig must be a substring of the genome (either strand).
	genome := dna.DecodeSeq(d.Genome)
	rcb := make([]dna.Base, len(d.Genome))
	copy(rcb, d.Genome)
	dna.ReverseComplementSeq(rcb)
	rc := dna.DecodeSeq(rcb)
	var longestStr string
	for _, u := range unitigs {
		if len(u) == longest {
			longestStr = u
			break
		}
	}
	if !bytes.Contains([]byte(genome), []byte(longestStr)) && !bytes.Contains([]byte(rc), []byte(longestStr)) {
		t.Error("longest unitig is not a genome substring")
	}
}

func TestUnitigsVisitEveryVertexOnce(t *testing.T) {
	reads := datasetReads(t, simulate.TinyProfile())
	g := BuildNaive(reads, 27)
	unitigs := g.Unitigs()
	totalVertices := 0
	for _, u := range unitigs {
		totalVertices += len(u) - 27 + 1
	}
	if totalVertices != g.NumVertices() {
		t.Fatalf("unitigs contain %d vertices, graph has %d", totalVertices, g.NumVertices())
	}
	// Every unitig k-mer must be a graph vertex, each exactly once.
	seen := make(map[dna.Kmer]bool)
	for _, u := range unitigs {
		bases := dna.EncodeSeq(nil, u)
		km := dna.KmerFromBases(bases, 27)
		for i := 0; ; i++ {
			canon, _ := km.Canonical(27)
			if seen[canon] {
				t.Fatal("vertex appears in two unitigs")
			}
			seen[canon] = true
			if _, ok := g.Lookup(canon); !ok {
				t.Fatal("unitig contains non-vertex kmer")
			}
			if i+27 >= len(bases) {
				break
			}
			km = km.AppendBase(bases[i+27], 27)
		}
	}
}

func BenchmarkBuildNaive(b *testing.B) {
	d, err := simulate.Generate(simulate.TinyProfile())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNaive(d.Reads, 27)
	}
}
