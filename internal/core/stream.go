package core

import (
	"context"
	"fmt"
	"io"

	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/msp"
)

// This file provides the out-of-core entry point: constructing the graph
// from a FASTA/FASTQ stream without ever materialising the full read set.
// This matches the paper's operating assumption — "we do not assume that
// the entire graph fits into machine memory" — more faithfully than
// Build's in-memory read slice: Step 1 holds one chunk of reads at a time,
// and Step 2 (which never needs the reads) proceeds partition by partition
// as usual.

// DefaultStreamChunkBases is the approximate number of bases per streamed
// Step 1 chunk.
const DefaultStreamChunkBases = 1 << 22

// BuildFromReader constructs the De Bruijn graph from a plain or gzipped
// FASTA/FASTQ stream. chunkBases bounds the bases held in memory at once
// (0 selects DefaultStreamChunkBases). With a fully resumable checkpoint
// (every Step 1 partition file verified) the stream is not read at all.
func BuildFromReader(r io.Reader, cfg Config, chunkBases int) (*Result, error) {
	return BuildFromReaderContext(context.Background(), r, cfg, chunkBases)
}

// BuildFromReaderContext is BuildFromReader under a context: canceling ctx
// stops the streamed build between chunks and partitions, the returned error
// wraps ErrCanceled, and completed checkpointed partitions stay journalled.
func BuildFromReaderContext(ctx context.Context, r io.Reader, cfg Config, chunkBases int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if chunkBases <= 0 {
		chunkBases = DefaultStreamChunkBases
	}
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	defer ck.close()

	var totalReads int64 = -1 // -1: step 1 resumed, the stream was not read
	partStats, step1Stats, err := buildStep1(ctx, cfg, st, ck, func(sinks partitionSinks) ([]msp.PartitionStats, []msp.FileInfo, StepStats, error) {
		fr, err := fastq.NewAutoReader(r)
		if err != nil {
			return nil, nil, StepStats{}, err
		}
		stats, infos, stepStats, n, err := runStep1Stream(ctx, fr, cfg, sinks, chunkBases)
		totalReads = n
		return stats, infos, stepStats, err
	})
	if err != nil {
		return nil, canceledErr(ctx, fmt.Errorf("core: step 1 (streamed MSP partitioning): %w", err))
	}
	if totalReads == 0 {
		return nil, fmt.Errorf("core: input stream contains no usable reads")
	}
	subgraphs, works, step2Stats, err := runStep2(ctx, partStats, cfg, st, ck)
	if err != nil {
		return nil, canceledErr(ctx, fmt.Errorf("core: step 2 (subgraph construction): %w", err))
	}

	res := &Result{Subgraphs: subgraphs}
	res.Stats.Step1 = step1Stats
	res.Stats.Step2 = step2Stats
	res.Stats.TotalSeconds = step1Stats.Seconds + step2Stats.Seconds
	res.Stats.Superkmers = msp.SummarizeStats(partStats)
	res.Stats.TotalKmers = res.Stats.Superkmers.TotalKmers
	finishStats(&res.Stats, works, ck)

	if cfg.KeepSubgraphs {
		merged, err := graph.Merge(cfg.K, subgraphs...)
		if err != nil {
			return nil, err
		}
		res.Graph = merged
	}
	return res, nil
}

// runStep1Stream executes Step 1 over lazily parsed chunks. Execution is
// chunk-sequential — only one chunk of reads is ever resident — while the
// virtual-time schedule still models the pipelined co-processing over the
// same chunk sequence.
func runStep1Stream(ctx context.Context, fr *fastq.Reader, cfg Config, sinks partitionSinks, chunkBases int) ([]msp.PartitionStats, []msp.FileInfo, StepStats, int64, error) {
	writer, err := msp.NewPartitionWriter(cfg.K, cfg.NumPartitions, sinks)
	if err != nil {
		return nil, nil, StepStats{}, 0, err
	}
	procs := processors(cfg)
	// Execution runs on the first processor (results are identical across
	// processors); the schedule prices all of them.
	exec := procs[0]

	var works []step1Work
	var totalReads int64
	chunk := make([]fastq.Read, 0, 1024)
	chunkSize := 0
	eof := false
	for !eof {
		if err := context.Cause(ctx); ctx.Err() != nil {
			writer.Close()
			return nil, nil, StepStats{}, 0, err
		}
		chunk, chunkSize = chunk[:0], 0
		for chunkSize < chunkBases {
			rd, err := fr.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				writer.Close()
				return nil, nil, StepStats{}, 0, err
			}
			chunk = append(chunk, rd)
			chunkSize += len(rd.Bases)
		}
		if len(chunk) == 0 {
			break
		}
		totalReads += int64(len(chunk))
		out, err := exec.Step1(ctx, chunk, cfg.K, cfg.P)
		if err != nil {
			writer.Close()
			return nil, nil, StepStats{}, 0, err
		}
		w := step1Work{
			reads:      int64(len(chunk)),
			bases:      out.Bases,
			fastqBytes: fastqBytesOf(chunk),
		}
		n, bytes, err := writer.WriteBatch(out.Superkmers)
		w.superkmers += int64(n)
		w.encodedBytes += bytes
		if err != nil {
			writer.Close()
			return nil, nil, StepStats{}, 0, err
		}
		works = append(works, w)
	}
	if err := writer.Close(); err != nil {
		return nil, nil, StepStats{}, 0, err
	}
	stats, err := scheduleStep1(works, cfg, procs)
	if err != nil {
		return nil, nil, StepStats{}, 0, err
	}
	return writer.Stats(), writer.FileInfos(), stats, totalReads, nil
}
