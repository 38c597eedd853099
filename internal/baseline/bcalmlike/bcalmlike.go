// Package bcalmlike reimplements the construction strategy of bcalm2
// (Chikhi et al., 2016), the memory-efficient single-machine baseline of
// Table III: minimizer-based partitioning to disk, then per-partition
// sequential sort-merge construction with additional IO passes for
// compaction and minimal-perfect-hash (MPHF) indexing of junction k-mers.
//
// The graph produced is identical to ParaHash's; what differs — and what
// the comparison measures — is the strategy's cost profile: very low memory
// (one partition at a time, no hash table pre-allocation) but an order of
// magnitude more time from sort-merge and the extra disk passes.
package bcalmlike

import (
	"fmt"
	"io"

	"parahash/internal/baseline/sortmerge"
	"parahash/internal/costmodel"
	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/iosim"
	"parahash/internal/msp"
)

// Config parameterises the baseline.
type Config struct {
	// K and P are the k-mer and minimizer lengths.
	K, P int
	// NumPartitions is the minimizer partition count (kept equal to
	// ParaHash's in comparisons, as in the paper's Table III note).
	NumPartitions int
	// Threads is the worker count (bcalm2 runs 20 in the paper).
	Threads int
	// Medium is the IO device for the partition passes.
	Medium costmodel.Medium
	// Cal supplies timing constants.
	Cal costmodel.Calibration
}

// Stats reports the baseline's virtual time and memory.
type Stats struct {
	// PartitionSeconds is the (single-pass) minimizer partitioning time.
	PartitionSeconds float64
	// SortMergeSeconds is the per-partition construction time.
	SortMergeSeconds float64
	// IOSeconds covers all disk passes, including the extra compaction /
	// MPHF passes bcalm2 performs.
	IOSeconds float64
	// Seconds is the total elapsed virtual time.
	Seconds float64
	// PeakMemoryBytes is the largest single-partition footprint.
	PeakMemoryBytes int64
	// Kmers and Distinct describe the constructed graph.
	Kmers, Distinct int64
}

// Build constructs the De Bruijn graph with the bcalm2-like strategy.
func Build(reads []fastq.Read, cfg Config) (*graph.Subgraph, Stats, error) {
	if cfg.K < 2 || cfg.K > dna.MaxK {
		return nil, Stats{}, fmt.Errorf("bcalmlike: k=%d out of range", cfg.K)
	}
	if cfg.P < 1 || cfg.P > cfg.K || cfg.P > dna.MaxP {
		return nil, Stats{}, fmt.Errorf("bcalmlike: p=%d out of range", cfg.P)
	}
	if cfg.NumPartitions < 1 {
		return nil, Stats{}, fmt.Errorf("bcalmlike: partitions=%d must be positive", cfg.NumPartitions)
	}
	if cfg.Threads < 1 {
		return nil, Stats{}, fmt.Errorf("bcalmlike: threads=%d must be positive", cfg.Threads)
	}
	store := iosim.NewStore()

	// Pass 1: minimizer partitioning (sequential scan; bcalm2's
	// partitioning is not the bottleneck so a single charged pass
	// suffices).
	writer, err := msp.NewPartitionWriter(cfg.K, cfg.NumPartitions, func(i int) (io.WriteCloser, error) {
		return store.Create(fmt.Sprintf("part/%04d", i))
	})
	if err != nil {
		return nil, Stats{}, err
	}
	sc := msp.Scanner{K: cfg.K, P: cfg.P}
	var scratch []msp.Superkmer
	var bases int64
	for _, rd := range reads {
		bases += int64(len(rd.Bases))
		scratch = sc.Superkmers(scratch[:0], rd.Bases)
		for _, sk := range scratch {
			if err := writer.WriteSuperkmer(sk); err != nil {
				writer.Close()
				return nil, Stats{}, err
			}
		}
	}
	if err := writer.Close(); err != nil {
		return nil, Stats{}, err
	}
	pstats := writer.Stats()

	var st Stats
	st.PartitionSeconds = cfg.Cal.CPUStep1Seconds(bases, cfg.Threads) /
		cfg.Cal.BcalmParallelEfficiency

	// Pass 2: per-partition sort-merge construction.
	subs := make([]*graph.Subgraph, cfg.NumPartitions)
	var peak, partBytes int64
	for i := 0; i < cfg.NumPartitions; i++ {
		name := fmt.Sprintf("part/%04d", i)
		size, err := store.Size(name)
		if err != nil {
			return nil, Stats{}, err
		}
		partBytes += size
		sks, err := readPartition(store, name)
		if err != nil {
			return nil, Stats{}, err
		}
		sub, smStats, err := sortmerge.BuildSubgraph(sks, cfg.K, cfg.Threads, cfg.Cal)
		if err != nil {
			return nil, Stats{}, err
		}
		subs[i] = sub
		st.Kmers += smStats.Pairs
		st.Distinct += smStats.Distinct
		// Sort-merge over sorted runs costs with reduced parallel
		// efficiency (bcalm2's compaction serialises).
		st.SortMergeSeconds += smStats.Seconds / cfg.Cal.BcalmParallelEfficiency
		if resident := pstats[i].EncodedBytes + smStats.Pairs*24; resident > peak {
			peak = resident
		}
	}

	// IO passes: reading the raw input, the initial partition write + read,
	// plus BcalmExtraIOPasses full traversals of the partition data for
	// compaction and MPHF hashing of junction k-mers (Table III note).
	passes := 2 + cfg.Cal.BcalmExtraIOPasses
	st.IOSeconds = cfg.Cal.ReadSeconds(cfg.Medium, fastq.ApproxFASTQBytes(reads)) +
		float64(passes)*(cfg.Cal.ReadSeconds(cfg.Medium, partBytes)+
			cfg.Cal.WriteSeconds(cfg.Medium, partBytes))/2

	st.Seconds = st.PartitionSeconds + st.SortMergeSeconds + st.IOSeconds
	st.PeakMemoryBytes = peak

	g, err := graph.Merge(cfg.K, subs...)
	if err != nil {
		return nil, Stats{}, err
	}
	return g, st, nil
}

// readPartition decodes one partition's superkmers, copying buffers.
func readPartition(store *iosim.Store, name string) ([]msp.Superkmer, error) {
	r, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	dec := msp.NewDecoder(r)
	var sks []msp.Superkmer
	for {
		sk, err := dec.Next()
		if err == io.EOF {
			return sks, nil
		}
		if err != nil {
			return nil, err
		}
		bases := make([]dna.Base, len(sk.Bases))
		copy(bases, sk.Bases)
		sk.Bases = bases
		sks = append(sks, sk)
	}
}
