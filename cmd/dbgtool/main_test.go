package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parahash"
	"parahash/internal/dna"
	"parahash/internal/graph"
	"parahash/internal/graph/graphtest"
)

// writeTestGraph builds a small graph file and returns its path plus one
// k-mer known to be in the graph.
func writeTestGraph(t *testing.T) (string, string) {
	t.Helper()
	d, err := parahash.GenerateDataset(parahash.TinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	g := parahash.BuildNaive(d.Reads, 27)
	path := filepath.Join(t.TempDir(), "g.dbg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	probe := dna.DecodeSeq(d.Reads[0].Bases[:27])
	return path, probe
}

func TestStats(t *testing.T) {
	path, _ := writeTestGraph(t)
	var out, errw bytes.Buffer
	if err := run([]string{"stats", path}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distinct vertices", "spectrum valley", "coverage peak"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats missing %q:\n%s", want, out.String())
		}
	}
}

func TestLookup(t *testing.T) {
	path, probe := writeTestGraph(t)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadSubgraph(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(path, kmer string) (string, error) {
		var out, errw bytes.Buffer
		err := run([]string{"lookup", path, kmer}, &out, &errw)
		return out.String(), err
	}

	// Both strands of a present k-mer name the same vertex — the one the
	// decoded graph holds.
	canon, fwd := dna.KmerFromString(probe).Canonical(g.K)
	v, ok := g.Lookup(canon)
	if !ok {
		t.Fatalf("probe %s not in the decoded graph", probe)
	}
	strands := map[bool]string{true: "forward", false: "reverse-complement"}
	var adjacency [2]string
	for i, kmer := range []string{probe, dna.KmerFromString(probe).ReverseComplement(g.K).String(g.K)} {
		out, err := lookup(path, kmer)
		if err != nil {
			t.Fatal(err)
		}
		head := fmt.Sprintf("%s (canonical %s, queried on %s strand)\noccurrences ~%d, degree %d\n",
			kmer, canon.String(g.K), strands[fwd == (i == 0)], v.Occurrences(), v.Degree())
		if !strings.HasPrefix(out, head) {
			t.Errorf("lookup %s:\n%swant it to start\n%s", kmer, out, head)
		}
		adjacency[i] = strings.TrimPrefix(out, head)
		if n := strings.Count(adjacency[i], "\n"); n != v.Degree() {
			t.Errorf("lookup %s lists %d edges, vertex has degree %d:\n%s", kmer, n, v.Degree(), out)
		}
	}
	if adjacency[0] != adjacency[1] {
		t.Errorf("the two strands list different edges:\n%s\n%s", adjacency[0], adjacency[1])
	}

	absent := strings.Repeat("A", 27)
	if out, err := lookup(path, absent); err != nil || out != absent+": not in graph\n" {
		t.Errorf("absent lookup: %q, %v", out, err)
	}
	if _, err := lookup(path, "ACGT"); err == nil || err.Error() != `k-mer "ACGT" has length 4, graph K is 27` {
		t.Errorf("wrong-length k-mer: err = %v", err)
	}
	// A base outside ACGT is refused and named — N would otherwise be read
	// as A and answered for another k-mer — while lower case is the same
	// k-mer as upper case.
	for _, c := range []byte{'N', 'n', 'X', '-', ' '} {
		for _, at := range []int{0, 13, 26} {
			kmer := []byte(probe)
			kmer[at] = c
			if out, err := lookup(path, string(kmer)); err == nil ||
				err.Error() != fmt.Sprintf("k-mer %q has non-ACGT base %q at position %d", kmer, c, at+1) {
				t.Errorf("k-mer with %q at %d: %q, err = %v", c, at, out, err)
			}
		}
	}
	upper, err := lookup(path, probe)
	if err != nil {
		t.Fatal(err)
	}
	if lower, err := lookup(path, strings.ToLower(probe)); err != nil ||
		strings.Replace(lower, strings.ToLower(probe), probe, 1) != upper {
		t.Errorf("lower-case lookup:\n%s(%v)\nupper-case:\n%s", lower, err, upper)
	}

	// A damaged file is refused by the header and exact-size checks, before
	// anything is sized from its vertex count.
	hugeCount := bytes.Clone(image)
	binary.LittleEndian.PutUint64(hugeCount[6:], 1<<36)
	for what, damaged := range map[string][]byte{
		"truncated":                   image[:len(image)-1],
		"padded":                      append(bytes.Clone(image), 0),
		"2^36-vertex count":           hugeCount,
		"2^36-vertex header, no body": hugeCount[:15],
	} {
		bad := filepath.Join(t.TempDir(), "bad.dbg")
		if err := os.WriteFile(bad, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := lookup(bad, probe); !errors.Is(err, graph.ErrBadFormat) || !strings.Contains(err.Error(), "bad subgraph format") {
			t.Errorf("%s: err = %v, want graph.ErrBadFormat", what, err)
		}
		// The decoding subcommands take the same header: a typed error,
		// not the runtime's out-of-memory abort.
		if strings.HasPrefix(what, "2^36") {
			var out, errw bytes.Buffer
			if err := run([]string{"stats", bad}, &out, &errw); !errors.Is(err, graph.ErrBadFormat) {
				t.Errorf("stats on %s: err = %v, want graph.ErrBadFormat", what, err)
			}
		}
	}
}

// TestVersion1Graph: a graph an older binary wrote, three times the size,
// reads as the same graph — every subcommand prints what it prints for the
// version-2 file.
func TestVersion1Graph(t *testing.T) {
	path, probe := writeTestGraph(t)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadSubgraph(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "v1.dbg")
	if err := os.WriteFile(old, graphtest.Version1(g), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"stats"}, {"spectrum"}, {"contigs"}, {"lookup", "", probe}} {
		var want, got, errw bytes.Buffer
		newArgs := append([]string{args[0], path}, args[min(2, len(args)):]...)
		oldArgs := append([]string{args[0], old}, args[min(2, len(args)):]...)
		if err := run(newArgs, &want, &errw); err != nil {
			t.Fatal(err)
		}
		if err := run(oldArgs, &got, &errw); err != nil {
			t.Fatalf("%s on a version-1 graph: %v", args[0], err)
		}
		if got.String() != want.String() {
			t.Errorf("%s on a version-1 graph:\n%s\nversion 2:\n%s", args[0], got.String(), want.String())
		}
	}
}

// TestHeaderKOutOfRange: a graph whose header says k is 0 or above 63 is a
// typed error to every subcommand — lookup included, which would otherwise
// hand that k to the k-mer code and panic.
func TestHeaderKOutOfRange(t *testing.T) {
	g := &graph.Subgraph{K: 27, Vertices: []graph.Vertex{{Kmer: dna.Kmer{Lo: 1}}, {Kmer: dna.Kmer{Lo: 2}}, {Kmer: dna.Kmer{Lo: 3}}}}
	var img bytes.Buffer
	if err := g.Write(&img); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, k := range []byte{0, 64, 200} {
		for version, image := range map[int][]byte{1: graphtest.Version1(g), 2: img.Bytes()} {
			bad := filepath.Join(dir, fmt.Sprintf("k%d-v%d.dbg", k, version))
			image = bytes.Clone(image)
			image[5] = k
			if err := os.WriteFile(bad, image, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{
				{"lookup", bad, strings.Repeat("A", max(int(k), 1))},
				{"stats", bad}, {"spectrum", bad}, {"contigs", bad},
				{"gfa", bad, filepath.Join(dir, "out.gfa")}, {"dot", bad, filepath.Join(dir, "out.dot")},
			} {
				var out, errw bytes.Buffer
				if err := run(args, &out, &errw); !errors.Is(err, graph.ErrBadFormat) || !strings.Contains(err.Error(), "bad subgraph format") {
					t.Errorf("version %d k=%d: %s: err = %v, want graph.ErrBadFormat", version, k, args[0], err)
				}
			}
		}
	}
}

func TestSpectrumAndContigs(t *testing.T) {
	path, _ := writeTestGraph(t)
	var out, errw bytes.Buffer
	if err := run([]string{"spectrum", path}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "suggested filter threshold") {
		t.Errorf("spectrum output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"contigs", path, "-auto", "-min-len", "40"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ">contig") {
		t.Errorf("contigs output:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "auto-filtered") {
		t.Errorf("contigs stderr:\n%s", errw.String())
	}
}

func TestExports(t *testing.T) {
	path, _ := writeTestGraph(t)
	dir := t.TempDir()
	var out, errw bytes.Buffer
	gfa := filepath.Join(dir, "g.gfa")
	if err := run([]string{"gfa", path, gfa}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(gfa)
	if err != nil || !bytes.HasPrefix(data, []byte("H\tVN:Z:1.0")) {
		t.Errorf("gfa export bad: %v", err)
	}
	dot := filepath.Join(dir, "g.dot")
	if err := run([]string{"dot", path, dot}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(dot)
	if err != nil || !bytes.HasPrefix(data, []byte("digraph")) {
		t.Errorf("dot export bad: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	path, _ := writeTestGraph(t)
	cases := [][]string{
		{},
		{"stats"},
		{"bogus", path},
		{"lookup", path},
		{"gfa", path},
		{"stats", "/does/not/exist"},
	}
	for i, args := range cases {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
	// scrub is parahash's; dbgtool keeps no alias, only a pointer to it.
	var out, errw bytes.Buffer
	if err := run([]string{"scrub", t.TempDir()}, &out, &errw); err == nil || !strings.Contains(err.Error(), "parahash scrub DIR") {
		t.Errorf("dbgtool scrub: err = %v, want one naming parahash scrub DIR", err)
	}
}
