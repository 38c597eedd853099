package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/msp"
	"parahash/internal/pipeline"
)

// This file provides the out-of-core entry point: constructing the graph
// from a FASTA/FASTQ stream without ever materialising the full read set.
// This matches the paper's operating assumption — "we do not assume that
// the entire graph fits into machine memory" — more faithfully than
// Build's in-memory read slice: Step 1 holds a few chunks of reads at a time,
// and Step 2 (which never needs the reads) proceeds partition by partition
// as usual.

// DefaultStreamChunkBases is the approximate number of bases per streamed
// Step 1 chunk. Chunks are the unit the parse, scan and encode stages hand
// each other, so they should be small enough that the stages overlap from
// the first few milliseconds on and large enough that a hand-over costs
// nothing beside the work; the CHANGES.md entry of PR 14 records the sweep
// this value was picked from.
const DefaultStreamChunkBases = 1 << 19

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

// runStep1Stream executes Step 1 over lazily parsed chunks, the three stages
// overlapped as in the paper's pipeline: a parser fills bounded chunks, the
// first processor scans them, and an output stage encodes the scanned chunks
// into the partition files in stream order. At most a handful of chunks are
// resident, never the read set. The virtual-time schedule models the
// co-processing of all configured processors over the same chunk sequence.
func runStep1Stream(ctx context.Context, fr *fastq.Reader, cfg Config, sinks partitionSinks, chunkBases int) ([]msp.PartitionStats, []msp.FileInfo, StepStats, int64, error) {
	writer, err := msp.NewPartitionWriter(cfg.K, cfg.NumPartitions, sinks)
	if err != nil {
		return nil, nil, StepStats{}, 0, err
	}
	procs := processors(cfg)
	works, totalReads, err := streamChunks(ctx, fr, cfg, procs, writer, chunkBases)
	// Closed on every path, so a failed stream leaves no open sink behind.
	if cerr := writer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, StepStats{}, 0, err
	}
	stats, err := scheduleStep1(works, cfg, procs)
	if err != nil {
		return nil, nil, StepStats{}, 0, err
	}
	return writer.Stats(), writer.FileInfos(), stats, totalReads, nil
}

// readChunk is one parsed slice of the input stream; scannedChunk is the
// same after the scan (its superkmers alias the reads' bases).
type readChunk struct {
	index int
	reads []fastq.Read
}

type scannedChunk struct {
	readChunk
	out device.Step1Output
}

// streamChunks runs the parse, scan and encode stages of the streamed Step 1
// concurrently and returns each chunk's measured work, in stream order, and
// the number of reads. Chunks pass between stages through one-slot channels
// and the encoder consumes them in the order they were parsed, so a
// partition file's bytes depend only on the read order — not on chunkBases
// or on how the stages interleave. Execution runs on the first processor
// (results are identical across processors). The first stage to fail — or
// the caller's cancellation — stops the others, and every stage goroutine
// has exited when streamChunks returns.
func streamChunks(ctx context.Context, fr *fastq.Reader, cfg Config, procs []device.Processor, writer *msp.Writer, chunkBases int) ([]step1Work, int64, error) {
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	rec := stepRecorder(cfg, "step1", procs)
	span := func(stage string, chunk, worker int, start time.Time) {
		if rec != nil {
			rec.StageSpan(stage, chunk, worker, start, time.Now())
		}
	}
	parsed := make(chan readChunk, 1)
	scanned := make(chan scannedChunk, 1)
	var stages sync.WaitGroup

	stages.Add(1)
	go func() {
		defer stages.Done()
		defer close(parsed)
		var chunk readChunk
		for eof := false; !eof; chunk.index++ {
			start := time.Now()
			chunk.reads = make([]fastq.Read, 0, len(chunk.reads)+len(chunk.reads)/8)
			for size := 0; size < chunkBases; {
				rd, err := fr.Next()
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					stop(err)
					return
				}
				chunk.reads = append(chunk.reads, rd)
				size += len(rd.Bases)
			}
			if len(chunk.reads) == 0 {
				return
			}
			span(pipeline.StageRead, chunk.index, -1, start)
			select {
			case parsed <- chunk:
			case <-ctx.Done():
				return
			}
		}
	}()

	stages.Add(1)
	go func() {
		defer stages.Done()
		defer close(scanned)
		for chunk := range parsed {
			start := time.Now()
			out, err := procs[0].Step1(ctx, chunk.reads, cfg.K, cfg.P)
			if err != nil {
				stop(err)
				return
			}
			span(pipeline.StageCompute, chunk.index, 0, start)
			select {
			case scanned <- scannedChunk{chunk, out}:
			case <-ctx.Done():
				return
			}
		}
	}()

	var works []step1Work
	var totalReads int64
	for chunk := range scanned {
		start := time.Now()
		// The batch is routed by the scan-time partition stamps, so this
		// sequential stage does no minimizer hashing.
		n, bytes, err := writer.WriteBatch(chunk.out.Superkmers)
		if err != nil {
			stop(err)
			break
		}
		span(pipeline.StageWrite, chunk.index, -1, start)
		works = append(works, step1Work{
			reads:        int64(len(chunk.reads)),
			bases:        chunk.out.Bases,
			fastqBytes:   fastqBytesOf(chunk.reads),
			superkmers:   int64(n),
			encodedBytes: bytes,
		})
		totalReads += int64(len(chunk.reads))
	}
	stages.Wait()
	if ctx.Err() != nil {
		return nil, 0, context.Cause(ctx)
	}
	return works, totalReads, nil
}
