// external.go is the out-of-core Step 2 backend: when a partition's
// predicted hash table exceeds its memory budget, construction switches
// from table insertion to external-memory sort-merge — the Kundeti et al.
// construction recast onto ParaHash's MSP partition files. Superkmers are
// flattened into fixed-size spill records in a bounded buffer, each full
// buffer is sorted with the zero-alloc run sorter and spilled through the
// partition store as a CRC-footered run file, and the runs are k-way
// merge-deduped streaming into the final sorted subgraph. No hash table is
// ever built, and the merge emits vertices already in SortParallel order,
// so the output is byte-identical to the in-core path's.
package device

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"parahash/internal/costmodel"
	"parahash/internal/graph"
	"parahash/internal/msp"
	"parahash/internal/store"
)

// DefaultMergeFanIn bounds how many runs a single merge pass consumes.
// Sixteen keeps the merge's resident state (one head vertex plus one read
// buffer per run) trivially small while making multi-pass merges rare.
const DefaultMergeFanIn = 16

// spillMinBufferRecords floors the run buffer so a degenerate budget still
// makes progress one small run at a time instead of a run per k-mer.
const spillMinBufferRecords = 64

// ExternalConfig parameterises the out-of-core construction of one
// partition.
type ExternalConfig struct {
	// K is the k-mer length.
	K int
	// BufferBytes is the in-memory budget for the run buffer pair (records
	// plus sort scratch); the record capacity is BufferBytes /
	// (2 × msp.SpillRecordBytes), floored at spillMinBufferRecords.
	BufferBytes int64
	// SortWorkers bounds the run sorter's goroutines.
	SortWorkers int
	// Store is where runs spill, PHSR version 2 at the narrowest count
	// width each run's counts fit. Runs and merge intermediates are
	// published volatile — complete and atomic, but not flushed: they can
	// be rebuilt from the partition's superkmer file, so only a caller
	// about to journal a claim over them pays for a Sync. A checkpointed
	// build claims a scan only when its runs outnumber the fan-in, so that
	// the merge reads them more than once; a scan one pass merges stays
	// unflushed, and a resume re-scans it.
	Store store.PartitionStore
	// RunName maps a run ordinal onto a store name. Merge passes continue
	// the ordinal sequence for their intermediate runs, so every spill
	// artifact of a partition shares one sweepable namespace (and dist
	// workers can fence the whole sequence with their lease token).
	RunName func(run int) string
	// OnRun, when set, is invoked after each scanned run is published, with
	// the record a checkpoint would claim it by. It is not called for merge
	// intermediates, which are reconstructible from the scanned runs.
	OnRun func(run int, name string, bytes int64, crc uint32, vertices int64) error
	// MaxFanIn caps runs per merge pass; zero means DefaultMergeFanIn.
	MaxFanIn int
	// Cal charges virtual time for the construction.
	Cal costmodel.Calibration
	// Threads is the CPU thread count the virtual-time charge assumes.
	Threads int
}

func (cfg ExternalConfig) fanIn() int {
	if cfg.MaxFanIn > 0 {
		return cfg.MaxFanIn
	}
	return DefaultMergeFanIn
}

// SpillResult reports one partition's scan-and-spill phase.
type SpillResult struct {
	// RunNames are the published run files, in ordinal order.
	RunNames []string
	// SpilledBytes is the total run file size.
	SpilledBytes int64
	// Kmers is the number of k-mer instances scanned, a folded superkmer's
	// counted Weight times (its records are written once, weighted).
	Kmers int64
}

// spillPair is SpillRuns' record buffer and the sort scratch beside it;
// spillBufs recycles the pair from one spilled partition to the next.
type spillPair struct{ buf, scratch []msp.SpillRecord }

var spillBufs sync.Pool

// SpillRuns scans a partition's superkmers into bounded sorted runs and
// spills each through the store. Every published run is complete and
// CRC-verified on read; none is durable until the caller Syncs it.
func SpillRuns(ctx context.Context, sks []msp.Superkmer, cfg ExternalConfig) (SpillResult, error) {
	capRecords := int(cfg.BufferBytes / (2 * msp.SpillRecordBytes))
	if capRecords < spillMinBufferRecords {
		capRecords = spillMinBufferRecords
	}
	// The buffer pair is this call's alone from here to its return, whatever
	// becomes of the attempt, so it goes back to the pool on every path.
	pair, _ := spillBufs.Get().(*spillPair)
	if pair == nil || cap(pair.buf) < capRecords || cap(pair.scratch) < capRecords {
		pair = &spillPair{make([]msp.SpillRecord, capRecords), make([]msp.SpillRecord, capRecords)}
	}
	buf, scratch := pair.buf[:0], pair.scratch[:capRecords]
	defer func() {
		pair.buf, pair.scratch = buf, scratch // as grown, if they were
		spillBufs.Put(pair)
	}()
	var res SpillResult

	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		// A canceled or abandoned attempt publishes nothing more: its run
		// names are deterministic, and the retry or resume that replaced
		// it is writing them now.
		if err := ctx.Err(); err != nil {
			return err
		}
		// A single giant superkmer can overshoot the nominal capacity; the
		// scratch buffer tracks the overshoot.
		if len(scratch) < len(buf) {
			scratch = make([]msp.SpillRecord, len(buf))
		}
		msp.SortSpillRecords(buf, scratch, cfg.SortWorkers)
		run := len(res.RunNames)
		name := cfg.RunName(run)
		crc, vertices, bytes, err := writeSpillRun(cfg.Store, name, cfg.K, buf)
		if err != nil {
			return fmt.Errorf("device: spilling run %q: %w", name, err)
		}
		res.RunNames = append(res.RunNames, name)
		res.SpilledBytes += bytes
		buf = buf[:0]
		if cfg.OnRun != nil {
			return cfg.OnRun(run, name, bytes, crc, vertices)
		}
		return nil
	}

	for i := range sks {
		if i%ctxCheckEvery == 0 && ctx.Err() != nil {
			return res, ctx.Err()
		}
		res.Kmers += int64(sks[i].NumKmers(cfg.K)) * int64(sks[i].Weight())
		buf = msp.AppendSpillRecords(buf, sks[i], cfg.K)
		if len(buf) >= capRecords {
			if err := flush(); err != nil {
				return res, err
			}
		}
	}
	if err := flush(); err != nil {
		return res, err
	}
	return res, nil
}

// writeSpillRun aggregates a sorted record buffer into a run file and
// returns its checksum, vertex count and size: duplicate k-mers collapse into
// one vertex whose counters accumulate each record's weight exactly as
// hashtable.InsertEdgeN would have, so the spill path's vertex values are
// bit-identical to the in-core table's. The buffer is aggregated twice — once
// for the vertex count and the largest count the run header declares, once
// to write.
func writeSpillRun(st store.PartitionStore, name string, k int, recs []msp.SpillRecord) (crc uint32, vertices, size int64, err error) {
	var largest uint32
	aggregateSpill(recs, func(v *graph.Vertex) error {
		vertices++
		largest = max(largest, slices.Max(v.Counts[:]))
		return nil
	})
	sink, err := st.CreateVolatile(name)
	if err != nil {
		return 0, 0, 0, err
	}
	rw, err := graph.NewNarrowRunWriter(sink, k, vertices, largest)
	if err == nil {
		err = aggregateSpill(recs, func(v *graph.Vertex) error { return rw.Add(*v) })
	}
	if err == nil {
		err = rw.Finish()
	}
	if err != nil {
		sink.Close()
		return 0, 0, 0, err
	}
	if err := sink.Close(); err != nil {
		return 0, 0, 0, err
	}
	return rw.Sum32(), vertices, rw.Size(), nil
}

// aggregateSpill hands emit each vertex of a sorted record buffer in order,
// its counters the sum of its records' weights by edge.
func aggregateSpill(recs []msp.SpillRecord, emit func(*graph.Vertex) error) error {
	var cur graph.Vertex
	for i, rec := range recs {
		if i == 0 || rec.Kmer != cur.Kmer {
			if i > 0 {
				if err := emit(&cur); err != nil {
					return err
				}
			}
			cur = graph.Vertex{Kmer: rec.Kmer}
		}
		left, right := msp.DecodeSpillEdge(rec.Edge)
		if left != msp.NoBase {
			cur.Counts[left] += rec.Weight
		}
		if right != msp.NoBase {
			cur.Counts[4+right] += rec.Weight
		}
	}
	if len(recs) == 0 {
		return nil
	}
	return emit(&cur)
}

// MergeSpilled k-way merges the named runs into the final sorted subgraph,
// reducing wide run sets in fan-in-bounded passes whose intermediate runs
// go back through the store under continued ordinals. It returns the
// constructed output plus the number of merge passes (the final
// merge-into-graph pass included). Input run files are left in place — the
// caller owns their lifecycle, because journalled runs must survive until
// the partition's subgraph is durably published.
func MergeSpilled(ctx context.Context, runNames []string, cfg ExternalConfig) (Step2Output, int64, error) {
	fanIn := cfg.fanIn()
	next := runNames
	nextOrdinal := len(runNames)
	passes := int64(0)
	for len(next) > fanIn {
		var reduced []string
		for lo := 0; lo < len(next); lo += fanIn {
			hi := lo + fanIn
			if hi > len(next) {
				hi = len(next)
			}
			if hi-lo == 1 {
				reduced = append(reduced, next[lo])
				continue
			}
			name := cfg.RunName(nextOrdinal)
			nextOrdinal++
			if err := mergeRunsToRun(ctx, cfg, next[lo:hi], name); err != nil {
				return Step2Output{}, passes, err
			}
			reduced = append(reduced, name)
		}
		next = reduced
		passes++
	}

	readers, capacity, err := openRuns(cfg, next)
	if err != nil {
		return Step2Output{}, passes, err
	}
	sub := &graph.Subgraph{K: cfg.K, Vertices: graph.GetVertices(capacity)}
	emitted := 0
	err = graph.MergeRuns(readers, func(v graph.Vertex) error {
		if emitted%ctxCheckEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		emitted++
		sub.Vertices = append(sub.Vertices, v)
		return nil
	})
	if err != nil {
		return Step2Output{}, passes, fmt.Errorf("device: merging spilled runs: %w", err)
	}
	passes++
	return Step2Output{
		Graph:    sub,
		Distinct: int64(len(sub.Vertices)),
	}, passes, nil
}

// openRuns opens streaming readers over the named runs, validating their
// headers, and returns the summed vertex-count capacity hint.
func openRuns(cfg ExternalConfig, names []string) ([]*graph.RunReader, int, error) {
	readers := make([]*graph.RunReader, 0, len(names))
	capacity := 0
	for _, name := range names {
		src, err := cfg.Store.Open(name)
		if err != nil {
			return nil, 0, fmt.Errorf("device: opening spill run %q: %w", name, err)
		}
		rr, err := graph.NewRunReader(src)
		if err != nil {
			return nil, 0, fmt.Errorf("device: spill run %q: %w", name, err)
		}
		if rr.K() != cfg.K {
			return nil, 0, fmt.Errorf("device: spill run %q: %w: k=%d, want %d",
				name, graph.ErrCorruptRun, rr.K(), cfg.K)
		}
		readers = append(readers, rr)
		capacity += int(rr.Count())
	}
	return readers, capacity, nil
}

// mergeRunsToRun merges a group of runs into one intermediate run file.
// The run format declares its vertex count and largest count up front, so
// the group is merged twice: a counting pass, then a writing pass — the
// classic external-memory trade of extra sequential IO for bounded memory.
func mergeRunsToRun(ctx context.Context, cfg ExternalConfig, names []string, outName string) error {
	readers, _, err := openRuns(cfg, names)
	if err != nil {
		return err
	}
	distinct := int64(0)
	var largest uint32
	err = graph.MergeRuns(readers, func(v graph.Vertex) error {
		if distinct%ctxCheckEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		distinct++
		largest = max(largest, slices.Max(v.Counts[:]))
		return nil
	})
	if err != nil {
		return fmt.Errorf("device: counting merge %q: %w", outName, err)
	}

	readers, _, err = openRuns(cfg, names)
	if err != nil {
		return err
	}
	sink, err := cfg.Store.CreateVolatile(outName)
	if err != nil {
		return fmt.Errorf("device: creating merge run %q: %w", outName, err)
	}
	rw, err := graph.NewNarrowRunWriter(sink, cfg.K, distinct, largest)
	if err != nil {
		sink.Close()
		return err
	}
	written := int64(0)
	err = graph.MergeRuns(readers, func(v graph.Vertex) error {
		if written%ctxCheckEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		written++
		return rw.Add(v)
	})
	if err != nil {
		sink.Close()
		return fmt.Errorf("device: writing merge run %q: %w", outName, err)
	}
	if err := rw.Finish(); err != nil {
		sink.Close()
		return err
	}
	return sink.Close()
}

// ExternalStep2 runs the complete out-of-core construction of one
// partition: spill sorted runs, then merge them into the sorted subgraph.
// The Step2Output mirrors the in-core kernels' shape with TableBytes zero
// (there is no table) and the table-contention counters zero; virtual time
// is charged from the CPU Step 2 calibration over the scanned k-mers.
func ExternalStep2(ctx context.Context, sks []msp.Superkmer, cfg ExternalConfig) (Step2Output, SpillResult, int64, error) {
	spill, err := SpillRuns(ctx, sks, cfg)
	if err != nil {
		return Step2Output{}, spill, 0, err
	}
	out, passes, err := MergeSpilled(ctx, spill.RunNames, cfg)
	if err != nil {
		return Step2Output{}, spill, passes, err
	}
	out.Kmers = spill.Kmers
	out.Seconds = cfg.Cal.CPUStep2Seconds(spill.Kmers, cfg.Threads, 0)
	out.ComputeSeconds = out.Seconds
	out.SpillRuns = int64(len(spill.RunNames))
	out.SpillBytes = spill.SpilledBytes
	out.MergePasses = passes
	return out, spill, passes, nil
}
