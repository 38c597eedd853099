package core

import (
	"context"
	"io"

	"parahash/internal/fastq"
)

// This file provides the out-of-core entry point: constructing the graph
// from a FASTA/FASTQ stream without ever materialising the full read set.
// This matches the paper's operating assumption — "we do not assume that
// the entire graph fits into machine memory" — more faithfully than
// Build's in-memory read slice: Step 1 holds a few chunks of reads at a time,
// and Step 2 (which never needs the reads) proceeds partition by partition
// as usual.

// DefaultStreamChunkBases is the approximate number of bases per streamed
// Step 1 chunk. Chunks are the unit the pipeline's parse, scan and encode
// stages hand each other, so they should be small enough that the stages overlap from
// the first few milliseconds on and large enough that a hand-over costs
// nothing beside the work; DESIGN.md §11 ("One Step 1, on the work-stealing
// pipeline") records the sweeps this value was picked from.
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
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	defer ck.close()
	return buildWithStore(ctx, readerSource(r, chunkBases), cfg, st, ck)
}

// readerSource is the chunk source over a plain or gzipped FASTA/FASTQ
// stream, chunkBases bases at a time (0 selects DefaultStreamChunkBases).
// The stream is opened by the first read, so a build that resumes past
// Step 1 leaves it untouched.
func readerSource(r io.Reader, chunkBases int) chunkSource {
	if chunkBases <= 0 {
		chunkBases = DefaultStreamChunkBases
	}
	var fr *fastq.Reader
	next := func() (fastq.Read, error) {
		if fr == nil {
			var err error
			if fr, err = fastq.NewAutoReader(r); err != nil {
				return fastq.Read{}, err
			}
		}
		return fr.Next()
	}
	return chunkedSource(next, chunkBases)
}
