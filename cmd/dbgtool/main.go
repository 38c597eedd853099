// Command dbgtool inspects and converts serialized De Bruijn graphs
// produced by parahash (Graph.Write / cmd/parahash -out).
//
// Usage:
//
//	dbgtool stats    graph.dbg              # vertex/edge/spectrum summary
//	dbgtool lookup   graph.dbg ACGT...      # query one k-mer's adjacency
//	dbgtool spectrum graph.dbg              # occurrence histogram
//	dbgtool contigs  graph.dbg [-auto]      # compact to contig FASTA
//	dbgtool gfa      graph.dbg out.gfa      # export compacted graph as GFA 1.0
//	dbgtool dot      graph.dbg out.dot      # export compacted graph as DOT
//
// It links the graph reader only, so a lookup starts fast; checkpoints are
// scrubbed by parahash scrub DIR.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"parahash/internal/dna"
	"parahash/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dbgtool:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: dbgtool {stats|lookup|spectrum|contigs|gfa|dot} graph.dbg [args]")
	}
	cmd, path := args[0], args[1]
	rest := args[2:]

	if cmd == "scrub" {
		return fmt.Errorf("unknown subcommand %q: scrub a checkpoint with parahash scrub DIR", cmd)
	}
	// lookup reads one page of the file in place; everything else decodes
	// the whole graph.
	if cmd == "lookup" {
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbgtool lookup graph.dbg KMER")
		}
		return cmdLookup(stdout, path, rest[0])
	}
	g, err := loadGraph(path)
	if err != nil {
		return err
	}
	switch cmd {
	case "stats":
		return cmdStats(stdout, g)
	case "spectrum":
		return cmdSpectrum(stdout, g)
	case "contigs":
		fs := flag.NewFlagSet("contigs", flag.ContinueOnError)
		auto := fs.Bool("auto", false, "auto-filter error vertices at the spectrum valley first")
		minLen := fs.Int("min-len", 0, "suppress contigs shorter than this")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		return cmdContigs(stdout, stderr, g, *auto, *minLen)
	case "gfa", "dot":
		if len(rest) != 1 {
			return fmt.Errorf("usage: dbgtool %s graph.dbg OUT", cmd)
		}
		return cmdExport(stderr, g, cmd, rest[0])
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func loadGraph(path string) (*graph.Subgraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadSubgraph(f)
}

func cmdStats(w io.Writer, g *graph.Subgraph) error {
	s := g.ComputeStats()
	spec := g.ComputeSpectrum()
	th := spec.ErrorThreshold()
	fmt.Fprintf(w, "K:                    %d\n", g.K)
	fmt.Fprintf(w, "distinct vertices:    %d\n", s.DistinctVertices)
	fmt.Fprintf(w, "directed edges:       %d\n", s.Edges)
	fmt.Fprintf(w, "adjacency records:    %d\n", s.TotalMultiplicity)
	fmt.Fprintf(w, "spectrum valley:      %d occurrences\n", th)
	fmt.Fprintf(w, "genuine vertices:     %d (at/above valley)\n", spec.GenuineVertices(th))
	fmt.Fprintf(w, "coverage peak:        %dx\n", spec.CoveragePeak(th))
	return nil
}

func cmdLookup(w io.Writer, path, kmerStr string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	g, err := graph.OpenFile(f, st.Size())
	if err != nil {
		return err
	}
	k := g.K()
	if len(kmerStr) != k {
		return fmt.Errorf("k-mer %q has length %d, graph K is %d", kmerStr, len(kmerStr), k)
	}
	// KmerFromString reads any other byte as A: refuse it rather than answer
	// for another k-mer, as parahashd's query does.
	for i := 0; i < len(kmerStr); i++ {
		if !strings.ContainsRune("ACGTacgt", rune(kmerStr[i])) {
			return fmt.Errorf("k-mer %q has non-ACGT base %q at position %d", kmerStr, kmerStr[i], i+1)
		}
	}
	km := dna.KmerFromString(kmerStr)
	canon, fwd := km.Canonical(k)
	v, ok, err := g.Lookup(canon)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintf(w, "%s: not in graph\n", kmerStr)
		return nil
	}
	strand := "forward"
	if !fwd {
		strand = "reverse-complement"
	}
	fmt.Fprintf(w, "%s (canonical %s, queried on %s strand)\n", kmerStr, canon.String(k), strand)
	fmt.Fprintf(w, "occurrences ~%d, degree %d\n", v.Occurrences(), v.Degree())
	for _, side := range []graph.Side{graph.Left, graph.Right} {
		name := "left "
		if side == graph.Right {
			name = "right"
		}
		for b := dna.Base(0); b < 4; b++ {
			if n := v.Count(side, b); n > 0 {
				nb := graph.Neighbor(canon, k, side, b)
				fmt.Fprintf(w, "  %s %c x%-6d -> %s\n", name, b.Char(), n, nb.String(k))
			}
		}
	}
	return nil
}

func cmdSpectrum(w io.Writer, g *graph.Subgraph) error {
	spec := g.ComputeSpectrum()
	fmt.Fprintln(w, "occurrences  vertices")
	for m := 1; m < len(spec.Counts); m++ {
		if spec.Counts[m] > 0 {
			fmt.Fprintf(w, "%11d  %d\n", m, spec.Counts[m])
		}
	}
	fmt.Fprintf(w, "suggested filter threshold: %d occurrences\n", spec.ErrorThreshold())
	return nil
}

func cmdContigs(w, errw io.Writer, g *graph.Subgraph, auto bool, minLen int) error {
	if auto {
		th, removed := g.FilterAuto()
		fmt.Fprintf(errw, "auto-filtered %d vertices below %d occurrences\n", removed, th)
	}
	cg := g.Compact()
	var kept []string
	for _, u := range cg.Unitigs {
		if len(u.Seq) < minLen {
			continue
		}
		fmt.Fprintf(w, ">contig%d len=%d cov=%.1f\n%s\n", u.ID, len(u.Seq), u.Coverage, u.Seq)
		kept = append(kept, u.Seq)
	}
	m := graph.ComputeAssemblyMetrics(kept, 0)
	fmt.Fprintf(errw, "%d contigs written; total %d bp, longest %d, N50 %d\n",
		m.Contigs, m.TotalBases, m.Longest, m.N50)
	return nil
}

func cmdExport(errw io.Writer, g *graph.Subgraph, format, outPath string) error {
	cg := g.Compact()
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if format == "gfa" {
		err = cg.WriteGFA(bw)
	} else {
		err = cg.WriteDOT(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "wrote %d unitigs, %d links to %s\n",
		len(cg.Unitigs), len(cg.Links), outPath)
	return nil
}
