// Streaming / out-of-core: the paper's premise is that neither the input
// nor the graph fits in memory, so everything flows partition by
// partition. This example writes a gzipped FASTQ "file", then constructs
// its De Bruijn graph from the stream: Step 1 ever holds only a few chunks
// of reads, Step 2 a few superkmer partitions plus a hash table per
// processor — the peak residency reported at the end is a small fraction of
// the dataset.
package main

import (
	"bytes"
	"fmt"
	"log"

	"parahash"
	"parahash/internal/fastq"
)

func main() {
	// Materialise a dataset as a gzipped FASTQ byte stream, standing in
	// for a .fastq.gz file on disk.
	profile := parahash.HumanChr14Profile().Scale(0.25)
	dataset, err := parahash.GenerateDataset(profile)
	if err != nil {
		log.Fatal(err)
	}
	var file bytes.Buffer
	if err := fastq.WriteFASTQGzip(&file, dataset.Reads); err != nil {
		log.Fatal(err)
	}
	rawBytes := int64(profile.FASTQBytes())
	fmt.Printf("dataset: %d reads, %.1f MB FASTQ (%.1f MB gzipped)\n",
		len(dataset.Reads), float64(rawBytes)/(1<<20), float64(file.Len())/(1<<20))

	cfg := parahash.DefaultConfig()
	cfg.NumPartitions = 48
	cfg.Medium = parahash.MediumDisk // Case 2: the stream comes from disk

	res, err := parahash.BuildFromReader(&file, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: %d distinct vertices from %d k-mer instances\n",
		res.Stats.DistinctVertices, res.Stats.TotalKmers)
	fmt.Printf("virtual time: %.2fs (step1 %.2fs, step2 %.2fs)\n",
		res.Stats.TotalSeconds, res.Stats.Step1.Seconds, res.Stats.Step2.Seconds)
	fmt.Printf("peak residency: %.2f MB (%.1f%% of the input file)\n",
		float64(res.Stats.PeakMemoryBytes)/(1<<20),
		100*float64(res.Stats.PeakMemoryBytes)/float64(rawBytes))

	// The streamed construction is exact: compare against the in-memory
	// reference on the same reads.
	want := parahash.BuildNaive(dataset.Reads, cfg.K)
	if !res.Graph.Equal(want) {
		log.Fatal("streamed graph differs from reference")
	}
	fmt.Println("verified: streamed graph == reference graph")
}
