package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"parahash/internal/costmodel"
	"parahash/internal/device"
	"parahash/internal/fastq"
	"parahash/internal/msp"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
	"parahash/internal/store"
)

// superkmerFile names a superkmer partition in the store.
func superkmerFile(i int) string { return fmt.Sprintf("superkmers/%04d", i) }

// subgraphFile names a constructed subgraph in the store.
func subgraphFile(i int) string { return fmt.Sprintf("subgraphs/%04d", i) }

// spillRunFile names one out-of-core run of a spilled partition. Run names
// are deterministic so a retried or resumed construction attempt overwrites
// rather than accumulates; ordinals past the scan's run count are merge
// intermediates, never journalled, swept as orphans.
func spillRunFile(part, run int) string { return fmt.Sprintf("spill/%04d/run-%04d", part, run) }

// SuperkmerFile and SubgraphFile expose the store names of partition
// artifacts so fault plans (the chaos engine) can script IO faults against
// specific files without duplicating the naming scheme.
func SuperkmerFile(i int) string { return superkmerFile(i) }

// SubgraphFile is the exported counterpart of subgraphFile.
func SubgraphFile(i int) string { return subgraphFile(i) }

// SpillRunFile is the exported counterpart of spillRunFile.
func SpillRunFile(part, run int) string { return spillRunFile(part, run) }

// partitionSinks opens the sink for one superkmer partition's encoded file.
type partitionSinks func(i int) (io.WriteCloser, error)

// storeSinks writes the partitions into the store: every one, or with a
// non-nil only just those, discarding the rest. A selective Step 1 rebuild
// still re-scans the full input — MSP routing needs every read — but only the
// partitions being rebuilt touch the store, and because a partition's record
// order equals the global read order, the rewritten files are byte-identical
// to the originals. The files are published without an fsync: buildStep1
// flushes them all at once before the roster that names them is journalled.
func storeSinks(st store.PartitionStore, only map[int]bool) partitionSinks {
	return func(i int) (io.WriteCloser, error) {
		if only == nil || only[i] {
			return st.CreateVolatile(superkmerFile(i))
		}
		return nopSink{}, nil
	}
}

type nopSink struct{}

func (nopSink) Write(p []byte) (int, error) { return len(p), nil }
func (nopSink) Close() error                { return nil }

// processors instantiates the configured compute devices. Index 0 is the
// CPU when enabled, followed by the GPUs. A configured ProcWrap (fault
// injection) is applied last, so each step scripts its faults on a fresh
// device slice.
func processors(cfg Config) []device.Processor {
	procs := make([]device.Processor, 0, cfg.NumProcessors())
	backend := cfg.tableBackend()
	if cfg.UseCPU {
		procs = append(procs, &device.CPU{
			Threads:    cfg.CPUThreads,
			Cal:        cfg.Calibration,
			Partitions: cfg.NumPartitions,
			Table:      backend,
		})
	}
	for g := 0; g < cfg.NumGPUs; g++ {
		procs = append(procs, &device.GPU{
			Index:       g,
			Cal:         cfg.Calibration,
			MemoryBytes: cfg.GPUMemoryBytes,
			Partitions:  cfg.NumPartitions,
			Table:       backend,
		})
	}
	if cfg.ProcWrap != nil {
		procs = cfg.ProcWrap(procs)
	}
	return procs
}

// applyReport folds a resilient run's fault accounting into the step's
// stats: counters, quarantined processor names, the virtual backoff
// (which is charged into the step's elapsed time), and the live run's
// partition attribution.
func applyReport(st *StepStats, rep pipeline.Report, procs []device.Processor) {
	st.Retries = rep.Retries
	st.Requeues = rep.Requeues
	st.BackoffSeconds = rep.BackoffSeconds
	st.Seconds += rep.BackoffSeconds
	st.WatchdogKills = rep.WatchdogKills
	st.CanceledAttempts = rep.CanceledAttempts
	st.Admissions = rep.Admission.Admissions
	st.AdmissionWaits = rep.Admission.Waits
	st.AdmissionWaitSeconds = rep.Admission.WaitSeconds
	st.PeakAdmittedBytes = rep.Admission.PeakBytes
	st.AdmissionBalanceBytes = rep.Admission.BalanceBytes
	for _, w := range rep.Quarantined {
		st.Quarantined = append(st.Quarantined, procs[w].Name())
	}
	st.MeasuredProcessorParts = make([]int, len(procs))
	for _, w := range rep.Assignment {
		// -1 marks a never-produced partition; attributing it to anyone
		// (worker 0, historically) would corrupt the workload accounting.
		if w >= 0 && w < len(procs) {
			st.MeasuredProcessorParts[w]++
		}
	}
}

// procNames lists the processors' display names in pipeline-worker order.
func procNames(procs []device.Processor) []string {
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name()
	}
	return names
}

// stepRecorder returns the pipeline span recorder for one step, or nil when
// tracing is off. (A typed-nil *obs.StepTracer must never be passed as the
// interface, hence the explicit nil return.)
func stepRecorder(cfg Config, step string, procs []device.Processor) pipeline.SpanRecorder {
	if cfg.Trace == nil {
		return nil
	}
	return &obs.StepTracer{T: cfg.Trace, Step: step, Workers: procNames(procs)}
}

// step1Work records one input chunk's measured work for virtual timing.
type step1Work struct {
	reads        int64
	bases        int64
	fastqBytes   int64
	superkmers   int64
	encodedBytes int64
}

// ErrNoUsableReads reports an input that yielded no k-mer at all — no reads,
// or none as long as K. Step 1 decides it after the scan and before anything
// is journalled, so a resume of the failed build fails the same way.
var ErrNoUsableReads = errors.New("core: input contains no usable reads")

// chunkSource yields Step 1's input chunks in read order and io.EOF after the
// last. Any other error is final: the source is not asked again.
type chunkSource func() ([]fastq.Read, error)

// sliceSource cuts an in-memory read set into equal chunks, 4 per processor
// and at least 16.
func sliceSource(reads []fastq.Read, cfg Config) chunkSource {
	n := 4 * cfg.NumProcessors()
	if n < 16 {
		n = 16
	}
	chunks := fastq.PartitionReads(reads, n)
	return func() ([]fastq.Read, error) {
		if len(chunks) == 0 {
			return nil, io.EOF
		}
		chunk := chunks[0]
		chunks = chunks[1:]
		return chunk, nil
	}
}

// chunkedSource fills chunks of about chunkBases bases from a stream of reads
// that ends with io.EOF, so only the chunks in flight are ever resident.
func chunkedSource(next func() (fastq.Read, error), chunkBases int) chunkSource {
	eof, last := false, 0
	return func() ([]fastq.Read, error) {
		if eof {
			return nil, io.EOF
		}
		chunk := make([]fastq.Read, 0, last+last/8)
		for size := 0; size < chunkBases; {
			rd, err := next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return nil, err
			}
			chunk = append(chunk, rd)
			size += len(rd.Bases)
		}
		if len(chunk) == 0 {
			return nil, io.EOF
		}
		last = len(chunk)
		return chunk, nil
	}
}

// step1Result is what Step 1 hands the rest of the build.
type step1Result struct {
	parts []msp.PartitionStats
	// files is each finalised partition file's footprint (size and record
	// CRC) for the build manifest.
	files []msp.FileInfo
	stats StepStats
	// peakChunkBytes is the largest input chunk's approximate FASTQ bytes.
	peakChunkBytes int64
}

// scannedChunk is one chunk after the scan, with what the output stage needs
// to know about the reads it came from.
type scannedChunk struct {
	device.Step1Output
	reads, fastqBytes int64
}

// runStep1 executes the MSP graph partitioning step on the work-stealing
// pipeline: the input stage takes chunks from src, whichever processor is idle
// scans a chunk into superkmers, and the output stage routes the superkmers of
// each chunk, in source order, into encoded partition files via the sinks — so
// a partition file's bytes depend on the read order only, not on the chunking
// or on which processor scanned what. A failing or hung processor is retried
// and quarantined under cfg.Resilience; a failing source is not — a stream
// cannot be re-read — and ends the step with the source's error.
func runStep1(ctx context.Context, src chunkSource, cfg Config, sinks partitionSinks) (step1Result, error) {
	writer, err := msp.NewPartitionWriter(cfg.K, cfg.NumPartitions, sinks)
	if err != nil {
		return step1Result{}, err
	}

	procs := processors(cfg)
	workers := make([]pipeline.Worker[[]fastq.Read, scannedChunk], len(procs))
	for i, p := range procs {
		p := p
		workers[i] = func(ctx context.Context, chunk []fastq.Read) (scannedChunk, error) {
			out, err := p.Step1(ctx, chunk, cfg.K, cfg.P)
			return scannedChunk{out, int64(len(chunk)), fastq.ApproxFASTQBytes(chunk)}, err
		}
	}

	read := func(int) ([]fastq.Read, error) {
		chunk, err := src()
		if err != nil && err != io.EOF {
			err = &pipeline.SourceError{Err: err}
		}
		return chunk, err
	}
	// Only the output stage touches works. encoded is how many of the current
	// chunk's superkmers are routed already, so a retried write resumes where
	// it left off instead of double-routing records.
	var works []step1Work
	encoded := 0
	write := func(i int, out scannedChunk) error {
		if i >= len(works) {
			works = append(works, make([]step1Work, i+1-len(works))...)
			works[i] = step1Work{reads: out.reads, bases: out.Bases, fastqBytes: out.fastqBytes}
			encoded = 0
		}
		// The batch is routed by the scan-time partition stamps, so this
		// sequential stage does no minimizer hashing.
		n, bytes, err := writer.WriteBatch(out.Superkmers[encoded:])
		encoded += n
		works[i].superkmers += int64(n)
		works[i].encodedBytes += bytes
		return err
	}

	report, err := pipeline.RunResilientTraced(ctx, read, workers, write, cfg.resiliencePolicy(), stepRecorder(cfg, "step1", procs))
	// Closed on every path, so a failed step leaves no open sink behind.
	if cerr := writer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return step1Result{}, err
	}

	res := step1Result{parts: writer.Stats(), files: writer.FileInfos()}
	if msp.SummarizeStats(res.parts).TotalKmers == 0 {
		return step1Result{}, fmt.Errorf("%w: no read is at least k=%d bases long", ErrNoUsableReads, cfg.K)
	}
	for _, w := range works {
		if w.fastqBytes > res.peakChunkBytes {
			res.peakChunkBytes = w.fastqBytes
		}
	}
	if res.stats, err = scheduleStep1(works, cfg, procs); err != nil {
		return step1Result{}, err
	}
	applyReport(&res.stats, report, procs)
	return res, nil
}

// step1Cost returns processor p's virtual seconds for one chunk.
func step1Cost(cfg Config, p device.Processor, w step1Work) float64 {
	if p.Kind() == device.KindCPU {
		return cfg.Calibration.CPUStep1Seconds(w.bases, cpuThreadsOf(p))
	}
	transfer := device.Step1TransferBytes(w.bases, w.superkmers)
	return cfg.Calibration.GPUStep1Seconds(w.bases, transfer)
}

func cpuThreadsOf(p device.Processor) int {
	if c, ok := p.(*device.CPU); ok {
		return c.Threads
	}
	return 1
}

// scheduleStep1 computes the step's virtual-time schedule from the
// measured chunk work.
func scheduleStep1(works []step1Work, cfg Config, procs []device.Processor) (StepStats, error) {
	parts := make([]pipeline.Partition, len(works))
	solo := make([]float64, len(procs))
	for i, w := range works {
		costs := make([]float64, len(procs))
		for p, proc := range procs {
			costs[p] = step1Cost(cfg, proc, w)
			solo[p] += costs[p]
		}
		parts[i] = pipeline.Partition{
			InputSeconds:   cfg.Calibration.ReadSeconds(cfg.Medium, w.fastqBytes),
			OutputSeconds:  cfg.Calibration.WriteSeconds(cfg.Medium, w.encodedBytes),
			ComputeSeconds: costs,
			WorkUnits:      w.reads,
		}
	}
	sched, err := pipeline.Simulate(parts, len(procs))
	if err != nil {
		return StepStats{}, err
	}
	if cfg.Trace != nil {
		obs.TraceSchedule(cfg.Trace, "step1", procNames(procs), sched)
	}
	return stepStatsFromSchedule(sched, procs, solo), nil
}

// stepStatsFromSchedule converts a pipeline schedule into StepStats,
// evaluating the paper's performance model (Eq. 1–2) on the scheduled stage
// totals so the run summary can report predicted vs measured step times.
func stepStatsFromSchedule(sched pipeline.Schedule, procs []device.Processor, solo []float64) StepStats {
	names := procNames(procs)
	var cpuBusy, gpuBusy float64
	for i, p := range procs {
		if i >= len(sched.ProcBusy) {
			break
		}
		if p.Kind() == device.KindCPU {
			cpuBusy += sched.ProcBusy[i]
		} else if sched.ProcBusy[i] > gpuBusy {
			// Co-processing GPUs run in parallel; Eq. 1's T_GPU is the
			// slowest device, not the sum.
			gpuBusy = sched.ProcBusy[i]
		}
	}
	predicted := costmodel.EstimateStepSeconds(costmodel.StepTimes{
		CPU:        cpuBusy,
		GPU:        gpuBusy,
		Input:      sched.SumInput,
		Output:     sched.SumOutput,
		Partitions: len(sched.Assignment),
	})
	return StepStats{
		Seconds:                      sched.Elapsed,
		NonPipelinedSeconds:          sched.NonPipelinedElapsed,
		InputSeconds:                 sched.SumInput,
		OutputSeconds:                sched.SumOutput,
		ProcessorNames:               names,
		ProcessorBusy:                sched.ProcBusy,
		ProcessorUnits:               sched.ProcUnits,
		ProcessorParts:               sched.ProcParts,
		SoloSeconds:                  solo,
		Partitions:                   len(sched.Assignment),
		PredictedSeconds:             predicted,
		PredictedCoprocessingSeconds: coprocessingPrediction(procs, solo),
	}
}

// coprocessingPrediction evaluates Eq. 2 — 1/(1/T_onlyCPU + N_GPU/T_1GPU) —
// from the per-processor solo times, or 0 when the device mix doesn't
// include both a CPU and at least one GPU.
func coprocessingPrediction(procs []device.Processor, solo []float64) float64 {
	var tCPU, tGPU float64
	numGPUs := 0
	for i, p := range procs {
		if i >= len(solo) {
			break
		}
		if p.Kind() == device.KindCPU {
			if tCPU == 0 {
				tCPU = solo[i]
			}
		} else {
			numGPUs++
			if tGPU == 0 {
				tGPU = solo[i]
			}
		}
	}
	if tCPU <= 0 || tGPU <= 0 || numGPUs == 0 {
		return 0
	}
	return costmodel.EstimateCoprocessingSeconds(tCPU, tGPU, numGPUs)
}
