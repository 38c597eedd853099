package graph

import "slices"

// AssemblyMetrics summarises a contig set with the standard de novo
// assembly statistics (the ones GAGE — the paper's dataset source —
// evaluates assemblers with).
type AssemblyMetrics struct {
	// Contigs is the number of sequences.
	Contigs int
	// TotalBases sums contig lengths.
	TotalBases int
	// Longest is the maximum contig length.
	Longest int
	// N50 is the length L such that contigs of length >= L cover half the
	// total assembly.
	N50 int
	// NG50 is N50 computed against a reference genome size instead of the
	// assembly size (0 when no genome size was given).
	NG50 int
	// MeanLength is the average contig length.
	MeanLength float64
}

// ComputeAssemblyMetrics computes the metrics for a contig set; genomeSize
// may be 0 when unknown (NG50 is then omitted).
func ComputeAssemblyMetrics(contigs []string, genomeSize int) AssemblyMetrics {
	var m AssemblyMetrics
	m.Contigs = len(contigs)
	if len(contigs) == 0 {
		return m
	}
	lengths := make([]int, len(contigs))
	for i, c := range contigs {
		lengths[i] = len(c)
		m.TotalBases += len(c)
	}
	slices.Sort(lengths)
	slices.Reverse(lengths)
	m.Longest = lengths[0]
	m.MeanLength = float64(m.TotalBases) / float64(len(contigs))

	nx := func(target int) int {
		if target <= 0 {
			return 0
		}
		acc := 0
		for _, l := range lengths {
			acc += l
			if 2*acc >= target {
				return l
			}
		}
		return 0
	}
	m.N50 = nx(m.TotalBases)
	if genomeSize > 0 {
		m.NG50 = nx(genomeSize)
	}
	return m
}

// ConnectedComponents counts the weakly connected components of the
// compacted graph (unitigs joined by links) and returns the size in
// unitigs of the largest one. Fragmented assemblies show many components;
// a clean single-chromosome assembly shows one.
func (cg *CompactedGraph) ConnectedComponents() (count, largest int) {
	if len(cg.Unitigs) == 0 {
		return 0, 0
	}
	parent := make([]int, len(cg.Unitigs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range cg.Links {
		a, b := find(l.From), find(l.To)
		if a != b {
			parent[a] = b
		}
	}
	sizes := make(map[int]int)
	for i := range parent {
		sizes[find(i)]++
	}
	for _, n := range sizes {
		if n > largest {
			largest = n
		}
	}
	return len(sizes), largest
}
