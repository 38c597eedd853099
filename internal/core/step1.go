package core

import (
	"context"
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

// fastqBytesOf approximates a chunk's on-disk FASTQ footprint.
func fastqBytesOf(reads []fastq.Read) int64 { return fastq.ApproxFASTQBytes(reads) }

// runStep1 executes the MSP graph partitioning step: input chunks flow
// through the work-stealing pipeline, each consumed by a processor that
// scans it into superkmers, and the output stage routes superkmers into
// encoded partition files via the sinks. It also returns each finalised
// file's footprint (size and record CRC) for the build manifest.
func runStep1(ctx context.Context, reads []fastq.Read, cfg Config, sinks partitionSinks) ([]msp.PartitionStats, []msp.FileInfo, StepStats, error) {
	chunks := fastq.PartitionReads(reads, cfg.inputChunks())
	writer, err := msp.NewPartitionWriter(cfg.K, cfg.NumPartitions, sinks)
	if err != nil {
		return nil, nil, StepStats{}, err
	}

	procs := processors(cfg)
	works := make([]step1Work, len(chunks))

	workers := make([]pipeline.Worker[[]fastq.Read, device.Step1Output], len(procs))
	for i, p := range procs {
		p := p
		workers[i] = func(ctx context.Context, chunk []fastq.Read) (device.Step1Output, error) {
			return p.Step1(ctx, chunk, cfg.K, cfg.P)
		}
	}

	read := func(i int) ([]fastq.Read, error) { return chunks[i], nil }
	// written tracks each chunk's routed superkmer count so a retried
	// write resumes where it left off instead of double-routing records.
	written := make([]int, len(chunks))
	write := func(i int, out device.Step1Output) error {
		w := &works[i]
		w.reads = int64(len(chunks[i]))
		w.bases = out.Bases
		w.fastqBytes = fastqBytesOf(chunks[i])
		// The batch is routed by the scan-time partition stamps, so this
		// sequential stage does no minimizer hashing; a partial batch
		// resumes after the records already encoded.
		n, bytes, err := writer.WriteBatch(out.Superkmers[written[i]:])
		written[i] += n
		w.superkmers += int64(n)
		w.encodedBytes += bytes
		return err
	}

	report, err := pipeline.RunResilientTraced(ctx, len(chunks), read, workers, write, cfg.resiliencePolicy(), stepRecorder(cfg, "step1", procs))
	if err != nil {
		writer.Close()
		return nil, nil, StepStats{}, err
	}
	if err := writer.Close(); err != nil {
		return nil, nil, StepStats{}, err
	}

	stats, err := scheduleStep1(works, cfg, procs)
	if err != nil {
		return nil, nil, StepStats{}, err
	}
	applyReport(&stats, report, procs)
	return writer.Stats(), writer.FileInfos(), stats, nil
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
