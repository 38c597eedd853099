package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"

	"parahash"
	"parahash/internal/dna"
)

// queriesPerInput is how many present and how many absent k-mers each input
// keeps, with their oracle answers, for query workloads and cold lookups.
const queriesPerInput = 2048

// input is one generated dataset on disk plus what its correct graph is.
// The oracle graph itself is dropped after sampling: a run checks whole
// graphs by SHA-256 and query answers against the sampled expectations.
type input struct {
	path       string
	fastqBytes int64
	oracleSHA  [sha256.Size]byte
	vertices   int
	queries    []query // present and absent k-mers interleaved
}

// query is a k-mer with the answer the reference graph gives for it.
type query struct {
	kmer         string
	present      bool
	multiplicity int
	degree       int
	occurrences  int
}

// bumblebee is the build workloads' input: the paper's Bumblebee stand-in,
// dense (74x coverage), so Step 2 is update-heavy.
func bumblebee(scale float64, seed int64) parahash.Profile {
	p := parahash.BumblebeeProfile().Scale(scale)
	p.Seed = seed
	return p
}

// sparse is one serve job's input: 10x coverage and two errors per read, so
// more than half of all table accesses are first inserts and the graph is
// large relative to the input. At scale 0.5 it is 300 kbp and 30 k reads.
func sparse(scale float64, seed int64, job int) parahash.Profile {
	return parahash.Profile{
		Name:        fmt.Sprintf("sparse%d", job),
		GenomeSize:  int(600_000 * scale),
		ReadLength:  101,
		NumReads:    int(60_000 * scale),
		ErrorLambda: 2,
		Seed:        seed*1000 + int64(job),
	}
}

// makeInput generates the profile's reads into path and computes the
// reference graph with the naive single-threaded builder.
func makeInput(p parahash.Profile, path string) (*input, error) {
	ds, err := parahash.GenerateDataset(p)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := parahash.WriteFASTQ(f, ds.Reads); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	in := &input{path: path, fastqBytes: fi.Size()}

	oracle := parahash.BuildNaive(ds.Reads, kmerLen)
	h := sha256.New()
	if err := oracle.Write(h); err != nil {
		return nil, err
	}
	copy(in.oracleSHA[:], h.Sum(nil))
	in.vertices = oracle.NumVertices()

	// Present k-mers come from the reads in a random orientation, absent
	// ones are uniformly random; either way the oracle decides the answer.
	rng := rand.New(rand.NewSource(p.Seed ^ 0x71756572)) // "quer"
	const letters = "ACGT"
	buf := make([]byte, kmerLen)
	for i := 0; i < 2*queriesPerInput; i++ {
		if i%2 == 0 {
			rd := ds.Reads[rng.Intn(len(ds.Reads))].Bases
			off := rng.Intn(len(rd) - kmerLen + 1)
			rc := rng.Intn(2) == 1
			for j := range buf {
				if rc {
					buf[j] = letters[3-rd[off+kmerLen-1-j]]
				} else {
					buf[j] = letters[rd[off+j]]
				}
			}
		} else {
			for j := range buf {
				buf[j] = letters[rng.Intn(4)]
			}
		}
		in.queries = append(in.queries, oracleAnswer(oracle, string(buf)))
	}
	return in, nil
}

func oracleAnswer(g *parahash.Graph, kmer string) query {
	q := query{kmer: kmer}
	canon, _ := dna.KmerFromString(kmer).Canonical(kmerLen)
	if v, ok := g.Lookup(canon); ok {
		q.present, q.multiplicity, q.degree, q.occurrences = true, v.Multiplicity(), v.Degree(), v.Occurrences()
	}
	return q
}

// shaOfFile hashes a file; used to check published graphs against the oracle.
func shaOfFile(path string) (sum [sha256.Size]byte, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sum, 0, err
	}
	defer f.Close()
	return shaOf(f)
}

func shaOf(r io.Reader) (sum [sha256.Size]byte, size int64, err error) {
	h := sha256.New()
	size, err = io.Copy(h, r)
	copy(sum[:], h.Sum(nil))
	return sum, size, err
}
