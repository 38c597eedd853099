package graph

import (
	"fmt"
	"math/bits"

	"parahash/internal/dna"
)

// Merge combines sorted subgraphs into one sorted graph, summing the
// counters of a k-mer that appears in several inputs. With MSP
// partitioning the vertex sets are disjoint, so nothing collapses; the
// summation exists for non-partitioned construction and for tests.
//
// Every input must be strictly ascending by k-mer — what Step 2, the spill
// merge and ReadSubgraph of a published file all produce; anything else
// fails with an error wrapping ErrUnsorted. It is the serial in-memory
// reference for MergeStreams, which is how a build finishes: one k-way
// merge over the whole inputs on the same loser tree.
func Merge(k int, subs ...*Subgraph) (*Subgraph, error) {
	var t loserTree
	var rests [][]Vertex // rests[c] is cursor c's unread input, its head t.keys[c]
	total := 0
	for i, s := range subs {
		if s.K != k {
			return nil, fmt.Errorf("graph: cannot merge K=%d subgraph into K=%d graph", s.K, k)
		}
		if unsortedAt(s.Vertices) >= 0 {
			return nil, fmt.Errorf("graph: merge input %d: %w", i, ErrUnsorted)
		}
		if len(s.Vertices) > 0 {
			t.keys = append(t.keys, s.Vertices[0].Kmer)
			rests = append(rests, s.Vertices)
			total += len(s.Vertices)
		}
	}
	out := make([]Vertex, 0, total)
	for len(t.keys) > 0 {
		w := t.play()
		for {
			rest := rests[w]
			if n := len(out); n > 0 && out[n-1].Kmer == rest[0].Kmer {
				out[n-1].addCounts(&rest[0])
			} else {
				out = append(out, rest[0])
			}
			if len(rest) == 1 {
				last := len(t.keys) - 1
				t.keys[w], rests[w] = t.keys[last], rests[last]
				t.keys, rests = t.keys[:last], rests[:last]
				break
			}
			t.keys[w], rests[w] = rest[1].Kmer, rest[1:]
			w = t.replay(w)
		}
	}
	return &Subgraph{K: k, Vertices: out}, nil
}

// loserTree is the k-way merge tournament over the head k-mers of the live
// cursors, keys[c] being cursor c's: node i of 1..m-1 holds the loser of the
// match played there, the cursors are the leaves m..2m-1 (parent i/2), and
// replacing the winner replays only its leaf-to-root path — one comparison
// per level, half a binary heap's. What a head is the head of — a slice of
// vertices for Merge, a window of a file for MergeStreams — stays with the
// caller, indexed like keys; the heads sit apart from it so the comparisons
// stay inside 16 bytes a cursor.
type loserTree struct {
	keys    []dna.Kmer
	losers  []int
	winners []int
}

// play plays the whole tournament over keys and returns the winning cursor:
// at the start, and each time a cursor has run dry and left.
func (t *loserTree) play() int {
	m := len(t.keys)
	if len(t.losers) < m {
		t.losers, t.winners = make([]int, m), make([]int, 2*m)
	}
	keys, losers, winners := t.keys, t.losers, t.winners
	for i := 2*m - 1; i >= 1; i-- {
		if i >= m {
			winners[i] = i - m
			continue
		}
		a, b := winners[2*i], winners[2*i+1]
		if keys[b].Less(keys[a]) {
			a, b = b, a
		}
		winners[i], losers[i] = a, b
	}
	return winners[1]
}

// replay returns the winner once cursor w, the last one, has moved on to the
// head now in keys[w]. Which of two random k-mers is smaller is a coin toss
// no branch predictor wins, so the replay selects by mask: the 128-bit
// subtraction borrows exactly when the stored loser beats the climbing
// winner, and then the two trade places.
func (t *loserTree) replay(w int) int {
	keys, losers := t.keys, t.losers
	for i := (w + len(keys)) / 2; i >= 1; i /= 2 {
		l := losers[i]
		lk, wk := keys[l], keys[w]
		_, borrow := bits.Sub64(lk.Lo, wk.Lo, 0)
		_, borrow = bits.Sub64(lk.Hi, wk.Hi, borrow)
		swap := (w ^ l) & -int(borrow)
		w ^= swap
		losers[i] = l ^ swap
	}
	return w
}
