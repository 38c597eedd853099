package graph_test

import (
	"bytes"
	"testing"

	"parahash/internal/dna"
	"parahash/internal/graph"
	"parahash/internal/graph/graphtest"
)

// TestGraphtestVersion1IsTheOracle: the version-1 writer other packages'
// tests use writes the compatibility oracle's bytes, at both key widths.
func TestGraphtestVersion1IsTheOracle(t *testing.T) {
	for _, k := range []int{27, 40} {
		if g := oracleGraph(k); !bytes.Equal(graphtest.Version1(g), graph.WriteV1(g)) {
			t.Errorf("k=%d: graphtest.Version1 differs from the oracle", k)
		}
	}
}

// TestGraphtestRunVersion1IsTheOracle: the version-1 run writer other
// packages' tests use writes the run oracle's bytes, at both key widths.
func TestGraphtestRunVersion1IsTheOracle(t *testing.T) {
	for _, k := range []int{27, 40} {
		if g := oracleGraph(k); !bytes.Equal(graphtest.RunVersion1(g), graph.WriteRunV1(g)) {
			t.Errorf("k=%d: graphtest.RunVersion1 differs from the oracle", k)
		}
	}
}

// oracleGraph is a sorted k-mer graph whose counts take every width.
func oracleGraph(k int) *graph.Subgraph {
	g := &graph.Subgraph{K: k}
	for i := range 100 {
		v := graph.Vertex{Kmer: dna.Kmer{Hi: uint64(i) * uint64(k/33), Lo: uint64(i)*7919 + 1}}
		v.Counts[i%8] = uint32(i) << (i % 25)
		g.Vertices = append(g.Vertices, v)
	}
	return g
}
