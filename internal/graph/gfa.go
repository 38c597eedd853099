package graph

import (
	"fmt"
	"io"

	"parahash/internal/dna"
)

// This file builds the compacted De Bruijn graph — unitigs plus the links
// between them — and exports it in GFA 1.0, the interchange format
// downstream assembly tools (Bandage, GFA-tools, ...) consume. It is the
// compacted representation bcalm2 (the paper's baseline) produces; having
// it here makes the reproduction a usable assembly component rather than
// a benchmark-only artefact.

// Unitig is one maximal non-branching path of the compacted graph.
type Unitig struct {
	// ID indexes the unitig within its CompactedGraph.
	ID int
	// Seq is the path's base string (K + m - 1 bases for m vertices).
	Seq string
	// Coverage is the mean occurrence count of the path's vertices.
	Coverage float64
}

// Link is one (K-1)-overlap between unitig ends: walking off FromEnd of
// From continues onto To, entering at its start if ToFwd or at its end
// (reverse complemented) otherwise.
type Link struct {
	// From / To are unitig IDs.
	From, To int
	// FromFwd is true when the link leaves From's forward orientation
	// (its right end), false when it leaves the left end.
	FromFwd bool
	// ToFwd is true when the link enters To in forward orientation.
	ToFwd bool
}

// CompactedGraph is the unitig graph of a De Bruijn subgraph.
type CompactedGraph struct {
	// K is the k-mer length; links overlap by K-1 bases.
	K int
	// Unitigs are indexed by ID.
	Unitigs []Unitig
	// Links are deduplicated: each undirected link appears once, in
	// canonical orientation.
	Links []Link
}

// vertexPlace records where a vertex landed during compaction.
type vertexPlace struct {
	unitig int
	pos    int
	fwd    bool // orientation the walk used at this vertex
	last   int  // index of the unitig's final vertex position
}

// Compact builds the compacted graph: unitigs via the maximal
// non-branching walk plus the links between unitig ends. The subgraph must
// be sorted.
func (g *Subgraph) Compact() *CompactedGraph {
	c := &compacter{g: g, visited: make([]bool, len(g.Vertices))}
	places := make([]vertexPlace, len(g.Vertices))
	cg := &CompactedGraph{K: g.K}

	for i := range g.Vertices {
		if c.visited[i] {
			continue
		}
		id := len(cg.Unitigs)
		seq, path := c.walkPathFrom(i)
		var occ int
		for pos, o := range path {
			places[o.idx] = vertexPlace{unitig: id, pos: pos, fwd: o.fwd, last: len(path) - 1}
			occ += g.Vertices[o.idx].Occurrences()
		}
		cg.Unitigs = append(cg.Unitigs, Unitig{
			ID:       id,
			Seq:      seq,
			Coverage: float64(occ) / float64(len(path)),
		})
	}

	// Links: examine both ends of every unitig.
	seen := make(map[Link]bool)
	addLink := func(l Link) {
		canon := l
		// An undirected link (A,ao)->(B,bo) equals (B,!bo)->(A,!ao);
		// keep the lexicographically smaller encoding.
		flipped := Link{From: l.To, To: l.From, FromFwd: !l.ToFwd, ToFwd: !l.FromFwd}
		if flipped.From < canon.From ||
			(flipped.From == canon.From && flipped.To < canon.To) ||
			(flipped.From == canon.From && flipped.To == canon.To && !canon.FromFwd && flipped.FromFwd) {
			canon = flipped
		}
		if !seen[canon] {
			seen[canon] = true
			cg.Links = append(cg.Links, canon)
		}
	}

	for idx := range g.Vertices {
		p := places[idx]
		// Only unitig ends can have external links.
		atStart := p.pos == 0
		atEnd := p.pos == p.last
		if !atStart && !atEnd {
			continue
		}
		for _, leaveFwd := range []bool{true, false} {
			// Leaving the unitig forward means walking right off the last
			// vertex in its walk orientation; leaving backward walks left
			// off the first vertex.
			var o oriented
			if leaveFwd {
				if !atEnd {
					continue
				}
				o = oriented{idx: idx, fwd: p.fwd}
			} else {
				if !atStart {
					continue
				}
				o = oriented{idx: idx, fwd: !p.fwd}
			}
			for _, b := range c.rightEdges(o) {
				raw := c.orientedKmer(o).AppendBase(b, g.K)
				canon, fwd := raw.Canonical(g.K)
				j := c.indexOf(canon)
				if j < 0 {
					continue
				}
				q := places[j]
				// The target must be entered at one of its ends.
				var toFwd bool
				switch {
				case q.pos == 0 && fwd == q.fwd:
					toFwd = true
				case q.pos == q.last && fwd != q.fwd:
					toFwd = false
				default:
					continue // branch into a unitig interior: not a GFA link
				}
				addLink(Link{From: p.unitig, FromFwd: leaveFwd, To: q.unitig, ToFwd: toFwd})
			}
		}
	}
	return cg
}

// walkPathFrom is walkFrom returning the oriented vertex path alongside
// the sequence.
func (c *compacter) walkPathFrom(i int) (string, []oriented) {
	cur := oriented{idx: i, fwd: false}
	for {
		next, _, ok := c.step(cur)
		if !ok || c.visited[next.idx] || next.idx == i {
			break
		}
		cur = next
	}
	head := oriented{idx: cur.idx, fwd: !cur.fwd}

	k := c.g.K
	km := c.orientedKmer(head)
	bases := make([]dna.Base, 0, k+16)
	for j := 0; j < k; j++ {
		bases = append(bases, km.Base(j, k))
	}
	path := []oriented{head}
	c.visited[head.idx] = true
	cur = head
	for {
		next, b, ok := c.step(cur)
		if !ok || c.visited[next.idx] {
			break
		}
		bases = append(bases, b)
		path = append(path, next)
		c.visited[next.idx] = true
		cur = next
	}
	return dna.DecodeSeq(bases), path
}

// orientChar renders a GFA orientation sign.
func orientChar(fwd bool) byte {
	if fwd {
		return '+'
	}
	return '-'
}

// WriteGFA serialises the compacted graph as GFA 1.0: one S line per
// unitig (with a KC k-mer-coverage tag) and one L line per link with CIGAR
// overlap (K-1)M. Each line is one Write: a caller writing to a file
// buffers w.
func (cg *CompactedGraph) WriteGFA(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "H\tVN:Z:1.0\n"); err != nil {
		return err
	}
	for _, u := range cg.Unitigs {
		kc := int(u.Coverage * float64(len(u.Seq)-cg.K+1))
		if _, err := fmt.Fprintf(w, "S\tu%d\t%s\tKC:i:%d\n", u.ID, u.Seq, kc); err != nil {
			return err
		}
	}
	for _, l := range cg.Links {
		if _, err := fmt.Fprintf(w, "L\tu%d\t%c\tu%d\t%c\t%dM\n",
			l.From, orientChar(l.FromFwd), l.To, orientChar(l.ToFwd), cg.K-1); err != nil {
			return err
		}
	}
	return nil
}

// WriteDOT serialises the compacted graph as Graphviz DOT for quick visual
// inspection of small graphs. Each line is one Write, as in WriteGFA.
func (cg *CompactedGraph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph dbg {"); err != nil {
		return err
	}
	for _, u := range cg.Unitigs {
		if _, err := fmt.Fprintf(w, "  u%d [label=\"u%d (%dbp, %.1fx)\"];\n",
			u.ID, u.ID, len(u.Seq), u.Coverage); err != nil {
			return err
		}
	}
	for _, l := range cg.Links {
		if _, err := fmt.Fprintf(w, "  u%d -> u%d [taillabel=\"%c\" headlabel=\"%c\"];\n",
			l.From, l.To, orientChar(l.FromFwd), orientChar(l.ToFwd)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
