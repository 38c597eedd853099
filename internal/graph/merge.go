package graph

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"parahash/internal/dna"
)

// mergeRangeVertices is the output size of one merge range: its slices of
// the inputs and its region of the output (48 B a vertex each) fit a
// core's private cache together, which is what keeps a 64-way merge from
// stalling on 64 interleaved memory streams.
const mergeRangeVertices = 1 << 13

// mergeOversample is the number of splitter candidates sampled per range;
// ranges are handed out dynamically, so their sizes only need to be of the
// right order.
const mergeOversample = 8

// Merge combines sorted subgraphs into one sorted graph, summing the
// counters of a k-mer that appears in several inputs. With MSP
// partitioning the vertex sets are disjoint, so nothing collapses; the
// summation exists for non-partitioned construction and for tests.
//
// Every input must be strictly ascending by k-mer — what Step 2, the spill
// merge and ReadSubgraph of a published file all produce; anything else
// fails with an error wrapping ErrUnsorted. Sorted pieces are merged, never
// sorted again: splitter k-mers cut the key space into cache-sized ranges,
// a binary search finds each range's slice of every input, and up to
// GOMAXPROCS workers k-way merge one range at a time straight into its own
// region of the output. Equal k-mers compare equal to every splitter, so
// they always meet inside one range and are summed there exactly once.
func Merge(k int, subs ...*Subgraph) (*Subgraph, error) {
	total := 0
	for _, s := range subs {
		total += len(s.Vertices)
	}
	return mergeRanges(k, subs, total/mergeRangeVertices+1, runtime.GOMAXPROCS(0))
}

// mergeRanges is Merge over at most parts key ranges on at most workers
// goroutines; a single worker runs on the caller's.
func mergeRanges(k int, subs []*Subgraph, parts, workers int) (*Subgraph, error) {
	runs := make([]mergeRun, 0, len(subs))
	total := 0
	for i, s := range subs {
		if s.K != k {
			return nil, fmt.Errorf("graph: cannot merge K=%d subgraph into K=%d graph", s.K, k)
		}
		if len(s.Vertices) > 0 {
			runs = append(runs, mergeRun{input: i, vs: s.Vertices})
			total += len(s.Vertices)
		}
	}
	out := make([]Vertex, total)
	parts = max(1, min(parts, total)) // a range needs a vertex to be cut at
	cuts := cutRuns(runs, total, parts)

	// Range j owns out[offs[j]:offs[j+1]], the exact size of its inputs.
	offs := make([]int, parts+1)
	for j := 0; j < parts; j++ {
		offs[j+1] = offs[j]
		for r := range runs {
			offs[j+1] += cuts[j+1][r] - cuts[j][r]
		}
	}
	wrote := make([]int, parts)
	workers = max(1, min(workers, parts))
	errs := make([]error, workers)
	var next atomic.Int64
	work := func(w int) {
		m := merger{runs: runs}
		for {
			j := int(next.Add(1)) - 1
			if j >= parts {
				return
			}
			if wrote[j], errs[w] = m.mergeRange(out[offs[j]:offs[j+1]], cuts[j], cuts[j+1]); errs[w] != nil {
				return
			}
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Close the gaps collapsed duplicates left at the end of each region.
	n := 0
	for j, w := range wrote {
		if n != offs[j] {
			copy(out[n:], out[offs[j]:offs[j]+w])
		}
		n += w
	}
	return &Subgraph{K: k, Vertices: out[:n]}, nil
}

// mergeRun is one non-empty Merge input and its position among the
// arguments (for error messages).
type mergeRun struct {
	input int
	vs    []Vertex
}

// cutRuns returns parts+1 rows of per-run indices: range j of run r is
// vs[cuts[j][r]:cuts[j+1][r]]. The splitters are quantiles of an evenly
// strided sample over the concatenated runs, so every run weighs in by its
// length and the ranges come out near-equal whether the runs interleave
// (MSP partitions) or tile the key space. Each cut is the lower bound of
// its splitter, searched only past the previous cut so the rows stay
// monotone even over input that turns out not to be sorted.
func cutRuns(runs []mergeRun, total, parts int) [][]int {
	cuts := make([][]int, parts+1)
	flat := make([]int, len(cuts)*len(runs))
	for j := range cuts {
		cuts[j] = flat[j*len(runs) : (j+1)*len(runs)]
	}
	for r, run := range runs {
		cuts[parts][r] = len(run.vs)
	}
	if parts == 1 {
		return cuts
	}
	stride := total/(parts*mergeOversample) + 1
	sample := make([]Vertex, 0, total/stride+1)
	at := stride / 2 // position of the next sample in the concatenation
	base := 0
	for _, run := range runs {
		for ; at-base < len(run.vs); at += stride {
			sample = append(sample, Vertex{Kmer: run.vs[at-base].Kmer})
		}
		base += len(run.vs)
	}
	sortVertices(sample, 1)
	for j := 1; j < parts; j++ {
		splitter := sample[j*len(sample)/parts].Kmer
		for r, run := range runs {
			from := cuts[j-1][r]
			rest := run.vs[from:]
			cuts[j][r] = from + sort.Search(len(rest), func(i int) bool { return !rest[i].Kmer.Less(splitter) })
		}
	}
	return cuts
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

// merger is one worker's reusable tournament state; rests[c] is the unread
// rest of cursor c's slice, its head the tree's keys[c].
type merger struct {
	runs  []mergeRun
	tree  loserTree
	rests [][]Vertex
}

// mergeRange k-way merges vs[from[r]:to[r]] of every run into dst
// (len(dst) is the slices' total) and returns how many vertices it wrote —
// fewer than len(dst) when equal k-mers collapsed.
//
// It first scans every slice once, checking that it is strictly ascending
// and continues its run's previous slice — between them the ranges
// therefore check every adjacent pair of every input. The scan is also
// what makes the merge fast: it streams each slice into cache one at a
// time, so the tournament that follows never waits on memory.
func (mg *merger) mergeRange(dst []Vertex, from, to []int) (int, error) {
	t := &mg.tree
	keys, rests := t.keys[:0], mg.rests[:0]
	for r, run := range mg.runs {
		lo, hi := from[r], to[r]
		if lo == hi {
			continue
		}
		if unsortedAt(run.vs[max(lo-1, 0):hi]) >= 0 {
			return 0, fmt.Errorf("graph: merge input %d: %w", run.input, ErrUnsorted)
		}
		keys, rests = append(keys, run.vs[lo].Kmer), append(rests, run.vs[lo:hi])
	}
	n := 0
	for len(keys) > 1 {
		t.keys = keys
		w := t.play()
		for {
			rest := rests[w]
			v := &rest[0]
			if n > 0 && dst[n-1].Kmer == v.Kmer {
				dst[n-1].addCounts(v)
			} else {
				dst[n] = *v
				n++
			}
			if len(rest) == 1 {
				last := len(keys) - 1
				keys[w], rests[w] = keys[last], rests[last]
				keys, rests = keys[:last], rests[:last]
				break
			}
			keys[w], rests[w] = rest[1].Kmer, rest[1:]
			w = t.replay(w)
		}
	}
	if len(keys) == 1 {
		// One run left: only its head can equal what was last written.
		last := rests[0]
		if n > 0 && dst[n-1].Kmer == last[0].Kmer {
			dst[n-1].addCounts(&last[0])
			last = last[1:]
		}
		n += copy(dst[n:], last)
	}
	t.keys, mg.rests = keys[:0], rests[:0]
	return n, nil
}
