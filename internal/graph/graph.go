// Package graph defines the De Bruijn graph structures ParaHash constructs:
// vertices are canonical k-mers, and each vertex carries eight edge
// multiplicity counters — the <vertex, list of edges> adjacency form of
// Definition 3 in the paper, bi-directed over canonical k-mers.
//
// The package also provides subgraph merging, abundance-based error
// filtering, unitig compaction for downstream assembly, and a naive
// single-threaded reference constructor used as a correctness oracle by the
// test suites of every other package.
package graph

import (
	"sort"

	"parahash/internal/dna"
)

// Vertex is one De Bruijn graph vertex with its adjacency counters.
type Vertex struct {
	// Kmer is the canonical k-mer.
	Kmer dna.Kmer
	// Counts holds edge multiplicities: Counts[0..3] count neighbours
	// preceding the canonical orientation (by base), Counts[4..7] count
	// neighbours following it.
	Counts [8]uint32
}

// addCounts adds o's edge multiplicities to v's: the same k-mer observed in
// two places is one vertex with both sets of observations.
func (v *Vertex) addCounts(o *Vertex) {
	for j, c := range o.Counts {
		v.Counts[j] += c
	}
}

// Multiplicity is the total number of adjacency observations at the vertex.
func (v Vertex) Multiplicity() int {
	m := 0
	for _, c := range v.Counts {
		m += int(c)
	}
	return m
}

// Degree is the number of distinct (side, base) edges.
func (v Vertex) Degree() int {
	d := 0
	for _, c := range v.Counts {
		if c > 0 {
			d++
		}
	}
	return d
}

// Side selects one end of a canonical vertex.
type Side int

// Vertex sides: Left precedes the canonical orientation, Right follows it.
const (
	Left  Side = 0
	Right Side = 1
)

// Count returns the edge multiplicity for a side and base.
func (v Vertex) Count(s Side, b dna.Base) uint32 {
	return v.Counts[int(s)*4+int(b)]
}

// Neighbor computes the vertex adjacent to km across the (side, base) edge:
// extending the canonical k-mer with b on the given side and dropping the
// opposite end, then canonicalising. The edge weight is Count(s, b).
func Neighbor(km dna.Kmer, k int, s Side, b dna.Base) dna.Kmer {
	var next dna.Kmer
	if s == Right {
		next = km.AppendBase(b, k)
	} else {
		next = km.PrependBase(b, k)
	}
	canon, _ := next.Canonical(k)
	return canon
}

// Subgraph is the De Bruijn subgraph constructed from one superkmer
// partition: a set of vertices sorted by k-mer for deterministic output.
type Subgraph struct {
	// K is the k-mer length.
	K int
	// Vertices is sorted ascending by canonical k-mer.
	Vertices []Vertex
}

// Lookup finds a vertex by canonical k-mer in a sorted subgraph.
func (g *Subgraph) Lookup(km dna.Kmer) (Vertex, bool) {
	i := sort.Search(len(g.Vertices), func(i int) bool {
		return !g.Vertices[i].Kmer.Less(km)
	})
	if i < len(g.Vertices) && g.Vertices[i].Kmer == km {
		return g.Vertices[i], true
	}
	return Vertex{}, false
}

// NumVertices returns the vertex count.
func (g *Subgraph) NumVertices() int { return len(g.Vertices) }

// NumEdges returns the number of distinct directed (vertex, side, base)
// edges; each undirected adjacency appears once per endpoint.
func (g *Subgraph) NumEdges() int {
	n := 0
	for _, v := range g.Vertices {
		n += v.Degree()
	}
	return n
}

// TotalMultiplicity sums edge observations over all vertices.
func (g *Subgraph) TotalMultiplicity() int {
	n := 0
	for _, v := range g.Vertices {
		n += v.Multiplicity()
	}
	return n
}

// FilterByMultiplicity removes vertices whose total adjacency observations
// fall below min — the paper's post-construction filtering of erroneous
// vertices, which "can only be filtered by the number of their occurrences
// after the graph is constructed" (§III-C1). Returns the number removed.
func (g *Subgraph) FilterByMultiplicity(min int) int {
	kept := g.Vertices[:0]
	removed := 0
	for _, v := range g.Vertices {
		if v.Multiplicity() >= min {
			kept = append(kept, v)
		} else {
			removed++
		}
	}
	g.Vertices = kept
	return removed
}

// Stats summarises a graph in the terms of Table I of the paper.
type Stats struct {
	// DistinctVertices is the graph size.
	DistinctVertices int
	// Edges is the number of distinct (vertex, side, base) edges.
	Edges int
	// TotalMultiplicity is the number of adjacency observations.
	TotalMultiplicity int
}

// ComputeStats gathers Stats for the subgraph.
func (g *Subgraph) ComputeStats() Stats {
	return Stats{
		DistinctVertices:  g.NumVertices(),
		Edges:             g.NumEdges(),
		TotalMultiplicity: g.TotalMultiplicity(),
	}
}

// Equal reports whether two subgraphs have identical sorted vertex sets and
// counters. Both must be sorted.
func (g *Subgraph) Equal(other *Subgraph) bool {
	if g.K != other.K || len(g.Vertices) != len(other.Vertices) {
		return false
	}
	for i := range g.Vertices {
		if g.Vertices[i] != other.Vertices[i] {
			return false
		}
	}
	return true
}
