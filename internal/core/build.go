package core

import (
	"context"
	"errors"
	"fmt"

	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/iosim"
	"parahash/internal/msp"
	"parahash/internal/store"
)

// ErrCanceled is wrapped into every error returned from a build cut short by
// its context (cancellation, -timeout expiry, SIGINT/SIGTERM). A canceled
// checkpointed build still journals every partition completed before the
// cancellation, so a subsequent resume skips them.
var ErrCanceled = errors.New("core: build canceled")

// canceledErr wraps err with ErrCanceled when the build's context was done,
// so callers distinguish "you stopped it" (resume later) from "it failed"
// (investigate) with a single errors.Is.
func canceledErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// Build constructs the De Bruijn graph of the reads with the full ParaHash
// pipeline: Step 1 partitions the graph via MSP into encoded superkmer
// partitions; Step 2 constructs each subgraph with concurrent hashing.
// Both steps pipeline input, compute and output over the configured
// heterogeneous processors.
//
// The reads live in memory (this is a library, not a file CLI), but the
// memory and IO accounting models the paper's streaming execution: peak
// residency counts one in-flight chunk, hash table and subgraph at a time,
// and every partition byte is charged to the configured IO medium.
// PartitionOnly runs only Step 1 (MSP graph partitioning) and returns the
// per-partition superkmer statistics with the step's virtual-time record.
// The parameter studies of the paper (Fig. 6, Table II) use this entry
// point to examine partition-size distributions without constructing
// subgraphs.
func PartitionOnly(reads []fastq.Read, cfg Config) ([]msp.PartitionStats, StepStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, StepStats{}, err
	}
	s1, err := runStep1(context.Background(), sliceSource(reads, cfg), cfg, storeSinks(iosim.NewStore(), nil))
	return s1.parts, s1.stats, err
}

// PartitionSuperkmers scans the reads and groups their superkmers into
// cfg.NumPartitions in-memory partitions by minimizer hash — the Step 1
// routing without the encoded file round-trip. The hashing parameter
// studies (Figs. 7-10) use it to feed individual partitions to processors.
func PartitionSuperkmers(reads []fastq.Read, cfg Config) ([][]msp.Superkmer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fastq.Validate(reads, cfg.K); err != nil {
		return nil, err
	}
	parts := make([][]msp.Superkmer, cfg.NumPartitions)
	sc := msp.Scanner{K: cfg.K, P: cfg.P}
	var scratch []msp.Superkmer
	for _, rd := range reads {
		scratch = sc.Superkmers(scratch[:0], rd.Bases)
		for _, sk := range scratch {
			idx := msp.Partition(sk.Minimizer, cfg.NumPartitions)
			parts[idx] = append(parts[idx], sk)
		}
	}
	return parts, nil
}

func Build(reads []fastq.Read, cfg Config) (*Result, error) {
	return BuildContext(context.Background(), reads, cfg)
}

// BuildContext is Build under a context: canceling ctx stops the pipeline
// promptly and leak-free, the returned error wraps ErrCanceled, and (with a
// checkpoint configured) every partition completed before the cancellation
// stays journalled for a later resume.
func BuildContext(ctx context.Context, reads []fastq.Read, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	defer ck.close()
	return buildWithStore(ctx, sliceSource(reads, cfg), cfg, st, ck)
}

// buildWithStore runs the validated pipeline over the chunks of src against a
// caller-provided store; fault-injection tests use it to exercise IO error
// paths. A non-nil checkpoint makes the build resumable: completed, verified
// partitions are skipped and every durable publication is journalled.
func buildWithStore(ctx context.Context, src chunkSource, cfg Config, st store.PartitionStore, ck *checkpoint) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s1, err := buildStep1(ctx, src, cfg, st, ck)
	if err != nil {
		return nil, canceledErr(ctx, fmt.Errorf("core: step 1 (MSP partitioning): %w", err))
	}
	works, step2Stats, err := runStep2(ctx, s1.parts, cfg, st, ck)
	if err != nil {
		return nil, canceledErr(ctx, fmt.Errorf("core: step 2 (subgraph construction): %w", err))
	}

	res := newResult(cfg, st)
	res.Stats.Step1 = s1.stats
	res.Stats.Step2 = step2Stats
	res.Stats.TotalSeconds = s1.stats.Seconds + step2Stats.Seconds
	res.Stats.Superkmers = msp.SummarizeStats(s1.parts)
	res.Stats.TotalKmers = res.Stats.Superkmers.TotalKmers
	finishStats(&res.Stats, works, ck)
	if s1.peakChunkBytes > res.Stats.PeakMemoryBytes {
		res.Stats.PeakMemoryBytes = s1.peakChunkBytes
	}
	if err := res.finish(cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// buildStep1 resolves Step 1 against the checkpoint: fully resumed (no
// execution, src is not read), selectively rebuilt (full re-scan, only failed
// partitions rewritten), or run from scratch.
func buildStep1(ctx context.Context, src chunkSource, cfg Config, st store.PartitionStore, ck *checkpoint) (step1Result, error) {
	if err := context.Cause(ctx); ctx.Err() != nil {
		return step1Result{}, err
	}
	if ck != nil && ck.step1Complete() {
		// Every partition file verified: Step 1 costs nothing, and its
		// statistics come straight from the manifest. The per-processor
		// slices are present (all zero) so downstream share/metrics
		// reporting indexes them safely.
		procs := processors(cfg)
		n := len(procs)
		return step1Result{parts: ck.partitionStats(), stats: StepStats{
			ProcessorNames:         procNames(procs),
			ProcessorBusy:          make([]float64, n),
			ProcessorUnits:         make([]int64, n),
			ProcessorParts:         make([]int, n),
			SoloSeconds:            make([]float64, n),
			MeasuredProcessorParts: make([]int, n),
		}}, nil
	}
	var only map[int]bool // the partitions to write; nil: all of them
	if ck != nil && ck.step1Valid {
		only = ck.step1Rebuild
	}
	s1, err := runStep1(ctx, src, cfg, storeSinks(st, only))
	if err != nil {
		return step1Result{}, err
	}
	if ck != nil {
		// The partition files are published (the writer closed) but neither
		// durable nor claimed; a crash here forces a Step 1 rerun on resume,
		// which is safe — the files are simply rewritten.
		faultinject.MaybeCrash("step1.published")
		if faultinject.MaybeStall(ctx, "step1.published") != nil {
			return step1Result{}, context.Cause(ctx)
		}
		// The roster may name only durable files: one covering Sync over what
		// this run wrote, then the one save that claims them all.
		var wrote []string
		for i := range s1.parts {
			if only == nil || only[i] {
				wrote = append(wrote, superkmerFile(i))
			}
		}
		if err := st.Sync(wrote...); err != nil {
			return step1Result{}, fmt.Errorf("core: syncing the partition files: %w", err)
		}
		if err := ck.recordStep1(s1.parts, s1.files); err != nil {
			return step1Result{}, err
		}
	}
	return s1, nil
}

// finishStats folds the executed partitions' measurements plus the resumed
// partitions' journalled counts into the run stats, leaving the largest
// single-partition residency in PeakMemoryBytes.
func finishStats(st *Stats, works []step2Work, ck *checkpoint) {
	st.PeakMemoryBytes = foldStep2Works(st, works)
	if ck != nil {
		for _, rec := range ck.step2Skip {
			st.foldStep2Record(rec)
		}
		st.ResumedPartitions = ck.resumed
		st.RebuiltPartitions = ck.rebuilt()
	}
	st.DuplicateVertices = st.TotalKmers - st.DistinctVertices
}
