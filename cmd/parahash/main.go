// Command parahash constructs a De Bruijn graph from a FASTA/FASTQ file
// (or a built-in synthetic dataset) with the full ParaHash pipeline and
// reports the paper-style run statistics.
//
// Usage:
//
//	parahash -in reads.fastq -k 27 -p 11 -partitions 64 -out graph.dbg
//	parahash -profile chr14 -gpus 2 -medium disk
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"parahash"
	"parahash/internal/device"
	"parahash/internal/dist"
)

// workerCommand builds the subprocess for one distributed worker. Tests
// replace it to re-execute the test binary instead of the installed one.
var workerCommand = func(args []string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable for worker spawn: %w", err)
	}
	return exec.Command(exe, args...), nil
}

// prepareDistributed runs a distributed build's Step 1 in this process: a
// file input streams chunk by chunk, as a single-process build's does, and a
// -profile's generated reads are partitioned from memory. Workers only ever
// share partition files with the coordinator, never reads.
func prepareDistributed(ctx context.Context, inPath, profile string, scale float64, cfg parahash.Config) (*parahash.DistPlan, error) {
	if inPath != "" && profile == "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parahash.PrepareDistBuildFromReader(ctx, f, cfg)
	}
	reads, err := loadReads(inPath, profile, scale)
	if err != nil {
		return nil, err
	}
	return parahash.PrepareDistBuild(ctx, reads, cfg)
}

// runDistributed fans the plan's Step 2 out to n worker subprocesses
// re-executing this binary in -dist-worker mode, with leases journalled in
// the checkpoint manifest.
func runDistributed(ctx context.Context, plan *parahash.DistPlan, n int, leaseMS int64, wargs []string) (*parahash.Result, error) {
	tr := &dist.ProcTransport{Command: func(id string) (*exec.Cmd, error) {
		return workerCommand(append(append([]string(nil), wargs...), "-dist-worker="+id))
	}}
	stats, err := parahash.RunDistributed(ctx, plan, tr, parahash.DistOptions{
		Workers: n,
		LeaseMS: leaseMS,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "parahash: "+format+"\n", a...)
		},
	})
	if err != nil {
		return nil, err
	}
	return plan.Finish(stats)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parahash:", err)
		if errors.Is(err, parahash.ErrCanceled) {
			// Conventional exit status for a SIGINT-terminated process; the
			// checkpoint (if any) keeps completed partitions for -resume.
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parahash", flag.ContinueOnError)
	var (
		inPath     = fs.String("in", "", "input FASTA/FASTQ file (mutually exclusive with -profile)")
		profile    = fs.String("profile", "", "built-in dataset: tiny, chr14, bumblebee")
		scale      = fs.Float64("scale", 1, "scale factor for -profile datasets")
		outPath    = fs.String("out", "", "write the merged graph to this file")
		k          = fs.Int("k", 27, "k-mer length (vertex size), 2..63")
		p          = fs.Int("p", 11, "minimizer length, 1..k")
		partitions = fs.Int("partitions", 64, "number of superkmer partitions")
		threads    = fs.Int("threads", 20, "CPU worker threads: at most this many hash, extract or sort at once, also while the CPU keeps two Step 2 partitions in flight")
		gpus       = fs.Int("gpus", 0, "number of simulated GPUs to co-process with")
		noCPU      = fs.Bool("no-cpu", false, "disable the CPU processor (GPU-only)")
		medium     = fs.String("medium", "mem", "IO medium model: mem (Case 1) or disk (Case 2)")
		filterMin  = fs.Int("filter", 0, "drop vertices with edge multiplicity below this from the published subgraphs and -out (part of the checkpoint's identity: -resume needs the same value)")
		lambda     = fs.Float64("lambda", 2, "Property 1 λ: expected errors per read, for table sizing")
		alpha      = fs.Float64("alpha", 0.65, "hash table load ratio α")
		_          = fs.String("table", "", "deprecated and ignored: Step 2 always uses the paper's state-transfer hash table")
		hostCal    = fs.Bool("host-calibration", false, "measure this machine's kernel throughput so virtual times predict local wall-clock instead of the paper's hardware")

		maxAttempts = fs.Int("max-attempts", 3, "per-partition attempt budget per pipeline stage (1 = fail fast)")
		quarantine  = fs.Int("quarantine-after", 2, "consecutive failures before a processor is quarantined (0 = never)")

		timeout           = fs.Duration("timeout", 0, "cancel the whole build after this wall-clock duration (0 = none)")
		partitionDeadline = fs.Duration("partition-deadline", 0, "watchdog deadline per partition attempt; expiry counts as a processor fault (0 = none)")
		memBudget         = fs.String("mem-budget", "", "Step 2 memory budget, e.g. 512M or 2G: concurrent predicted hash-table residency queues under this bound (empty = none)")
		partMemBudget     = fs.String("partition-mem-budget", "", "per-partition Step 2 memory budget, e.g. 64M: a partition whose predicted hash table exceeds this is built out-of-core by sort-merge spilling under the bound (empty = spill only when a single partition exceeds -mem-budget)")

		checkpointDir = fs.String("checkpoint-dir", "", "durable on-disk partition store + build manifest in this directory (crash-safe)")
		resume        = fs.Bool("resume", false, "resume from the -checkpoint-dir manifest: skip verified completed partitions, rebuild corrupt ones")

		workers     = fs.Int("workers", 0, "distributed build: fan Step 2 out to this many local worker subprocesses under manifest-journalled leases (requires -checkpoint-dir)")
		distLeaseMS = fs.Int64("dist-lease-ms", 2000, "distributed build: lease duration in milliseconds; a worker silent past this is presumed dead and its partitions are re-leased")
		distWorker  = fs.String("dist-worker", "", "internal: serve as a distributed-build worker with this id over stdin/stdout (spawned by -workers, not for direct use)")

		metricsJSON = fs.String("metrics-json", "", "write the run's metrics registry (parahash.metrics/v1 JSON) to this file")
		traceOut    = fs.String("trace-out", "", "write per-partition stage spans as Chrome trace-event JSON (open in Perfetto) to this file")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		bound, stop, err := servePprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("starting pprof server: %w", err)
		}
		defer stop()
		fmt.Fprintf(stdout, "pprof server listening on http://%s/debug/pprof/\n", bound)
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "parahash: closing CPU profile:", err)
			}
		}()
	}

	cfg := parahash.DefaultConfig()
	cfg.K = *k
	cfg.P = *p
	cfg.NumPartitions = *partitions
	cfg.CPUThreads = *threads
	cfg.NumGPUs = *gpus
	cfg.UseCPU = !*noCPU
	cfg.Lambda = *lambda
	cfg.Alpha = *alpha
	if *filterMin > 1 {
		cfg.OutputFilterMin = *filterMin
	}
	// The CLI never holds the graph: -out streams it from the published
	// subgraph files (Result.WriteGraph), the totals come from Stats.
	cfg.KeepSubgraphs = false
	cfg.Resilience.MaxAttempts = *maxAttempts
	cfg.Resilience.QuarantineAfter = *quarantine
	cfg.Resilience.PartitionDeadline = *partitionDeadline
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			return fmt.Errorf("-mem-budget: %w", err)
		}
		cfg.MemoryBudgetBytes = budget
	}
	if *partMemBudget != "" {
		budget, err := parseBytes(*partMemBudget)
		if err != nil {
			return fmt.Errorf("-partition-mem-budget: %w", err)
		}
		cfg.PartitionMemoryBudgetBytes = budget
	}
	cfg.Logf = func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "parahash: "+format+"\n", a...)
	}
	if *hostCal {
		cfg.Calibration = device.CalibrateHost(*threads)
	}
	switch *medium {
	case "mem":
		cfg.Medium = parahash.MediumMemCached
	case "disk":
		cfg.Medium = parahash.MediumDisk
	default:
		return fmt.Errorf("unknown medium %q (want mem or disk)", *medium)
	}
	if *traceOut != "" {
		cfg.Trace = parahash.NewTrace()
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *checkpointDir != "" {
		cfg.Checkpoint = parahash.CheckpointConfig{
			Dir:        *checkpointDir,
			Resume:     *resume,
			InputLabel: inputLabel(*inPath, *profile, *scale),
		}
	}
	if *resume {
		// A previous run canceled mid-write may have left "<out>.tmp"
		// siblings behind (the atomic rename never happened); clear them so
		// the resumed run starts clean.
		removeOrphanTmp(stdout, *outPath, *metricsJSON, *traceOut)
	}

	// SIGINT/SIGTERM cancel the build gracefully: the pipeline stops between
	// partitions, completed partitions stay journalled in the checkpoint, and
	// the process exits 130 without tmp litter. A second signal kills
	// immediately (signal.NotifyContext restores default disposition after
	// the first).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("build exceeded -timeout=%v", *timeout))
		defer cancel()
	}

	if *distWorker != "" {
		// Worker mode: stdout is the protocol channel, so nothing else may
		// print to it; the parent owns all human-facing output.
		if *checkpointDir == "" {
			return fmt.Errorf("-dist-worker requires -checkpoint-dir")
		}
		return dist.ServeStdio(ctx, *distWorker, cfg, os.Stdin, os.Stdout)
	}

	var res *parahash.Result
	if *workers > 0 {
		if *checkpointDir == "" {
			return fmt.Errorf("-workers requires -checkpoint-dir (the store the worker processes share)")
		}
		plan, err := prepareDistributed(ctx, *inPath, *profile, *scale, cfg)
		if err != nil {
			return err
		}
		// Workers re-execute this binary with the construction parameters
		// mirrored; everything output-related stays with the coordinator.
		wargs := []string{
			"-k", strconv.Itoa(*k), "-p", strconv.Itoa(*p),
			"-partitions", strconv.Itoa(*partitions),
			"-threads", strconv.Itoa(*threads), "-gpus", strconv.Itoa(*gpus),
			"-medium", *medium,
			"-lambda", fmt.Sprint(*lambda), "-alpha", fmt.Sprint(*alpha),
			"-checkpoint-dir", *checkpointDir,
			"-filter", strconv.Itoa(*filterMin),
		}
		if *noCPU {
			wargs = append(wargs, "-no-cpu")
		}
		if *memBudget != "" {
			wargs = append(wargs, "-mem-budget", *memBudget)
		}
		if *partMemBudget != "" {
			// Workers make the same in-core vs spill routing decision the
			// coordinator would, so the budgets travel with them.
			wargs = append(wargs, "-partition-mem-budget", *partMemBudget)
		}
		if res, err = runDistributed(ctx, plan, *workers, *distLeaseMS, wargs); err != nil {
			return err
		}
	} else if *inPath != "" && *profile == "" {
		// File inputs stream chunk by chunk (out-of-core Step 1) and
		// accept gzip transparently.
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if res, err = parahash.BuildFromReaderContext(ctx, f, cfg); err != nil {
			return err
		}
	} else {
		reads, err := loadReads(*inPath, *profile, *scale)
		if err != nil {
			return err
		}
		if res, err = parahash.BuildContext(ctx, reads, cfg); err != nil {
			return err
		}
	}
	printStats(stdout, res, cfg)
	if d := res.Stats.Dist; d != nil {
		fmt.Fprintf(stdout, "distributed build: %d workers (%d spawned), %d leases granted, %d expired, %d partitions reassigned, %d fenced writes, %d quarantined\n",
			d.Workers, d.Spawned, d.LeaseGrants, d.LeaseExpiries, d.Reassignments, d.FencedWrites, d.WorkerQuarantines)
	}

	if *filterMin > 1 {
		fmt.Fprintf(stdout, "filtered %d vertices below multiplicity %d; %d remain\n",
			res.Stats.DistinctVertices-res.Stats.GraphVertices, *filterMin, res.Stats.GraphVertices)
	}
	if *outPath != "" {
		if err := writeFileAtomicCtx(ctx, *outPath, func(w io.Writer) error {
			_, _, err := res.WriteGraph(w)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "graph written to %s\n", *outPath)
	}

	if *metricsJSON != "" {
		if err := writeFileAtomicCtx(ctx, *metricsJSON, parahash.MetricsOf(res, cfg).WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsJSON)
	}
	if *traceOut != "" {
		if err := writeFileAtomicCtx(ctx, *traceOut, cfg.Trace.WriteChromeJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			return fmt.Errorf("writing heap profile: %w", err)
		}
		fmt.Fprintf(stdout, "heap profile written to %s\n", *memProfile)
	}
	return nil
}

// writeFileAtomic publishes an output file all-or-nothing: write writes the
// content to "<path>.tmp", which is renamed over path only on success and
// removed on any error — an interrupted or failed run never leaves a
// truncated graph, metrics or trace file behind.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeFileAtomicCtx is writeFileAtomic honoring cancellation: a context
// that died between the build finishing and this write starting (a signal
// during output publication) skips the write entirely — the checkpoint, not
// a race against the signal, is the durability story — and surfaces the
// cancellation so the process still exits 130.
func writeFileAtomicCtx(ctx context.Context, path string, write func(io.Writer) error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("%w: not writing %s: %w", parahash.ErrCanceled, path, context.Cause(ctx))
	}
	return writeFileAtomic(path, write)
}

// removeOrphanTmp deletes "<path>.tmp" siblings of the named output paths —
// litter a canceled previous run may have left if it died between creating
// and renaming the tmp file.
func removeOrphanTmp(stdout io.Writer, paths ...string) {
	for _, p := range paths {
		if p == "" {
			continue
		}
		tmp := p + ".tmp"
		if _, err := os.Stat(tmp); err == nil {
			if err := os.Remove(tmp); err == nil {
				fmt.Fprintf(stdout, "removed orphaned %s\n", tmp)
			}
		}
	}
}

// parseBytes parses a human byte size: a plain integer, or one with a K/M/G/T
// suffix (binary multiples; an optional trailing "B" or "iB" is accepted).
func parseBytes(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	upper = strings.TrimSuffix(upper, "IB")
	upper = strings.TrimSuffix(upper, "B")
	mult := int64(1)
	if n := len(upper); n > 0 {
		switch upper[n-1] {
		case 'K':
			mult, upper = 1<<10, upper[:n-1]
		case 'M':
			mult, upper = 1<<20, upper[:n-1]
		case 'G':
			mult, upper = 1<<30, upper[:n-1]
		case 'T':
			mult, upper = 1<<40, upper[:n-1]
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 1073741824, 512M, 2G)", orig)
	}
	if v > (1<<63-1)/mult {
		return 0, fmt.Errorf("byte size %q overflows", orig)
	}
	return v * mult, nil
}

// inputLabel identifies the input for the checkpoint manifest fingerprint.
func inputLabel(inPath, profile string, scale float64) string {
	if inPath != "" {
		return "file:" + inPath
	}
	return fmt.Sprintf("profile:%s@%g", strings.ToLower(profile), scale)
}

func loadReads(inPath, profile string, scale float64) ([]parahash.Read, error) {
	switch {
	case inPath != "" && profile != "":
		return nil, fmt.Errorf("-in and -profile are mutually exclusive")
	case profile != "":
		var prof parahash.Profile
		switch strings.ToLower(profile) {
		case "tiny":
			prof = parahash.TinyProfile()
		case "chr14":
			prof = parahash.HumanChr14Profile()
		case "bumblebee":
			prof = parahash.BumblebeeProfile()
		default:
			return nil, fmt.Errorf("unknown profile %q (want tiny, chr14, bumblebee)", profile)
		}
		if scale != 1 {
			prof = prof.Scale(scale)
		}
		d, err := parahash.GenerateDataset(prof)
		if err != nil {
			return nil, err
		}
		return d.Reads, nil
	default:
		return nil, fmt.Errorf("need -in FILE or -profile NAME (try -profile tiny)")
	}
}

func printStats(w io.Writer, res *parahash.Result, cfg parahash.Config) {
	s := res.Stats
	fmt.Fprintf(w, "De Bruijn graph constructed: K=%d P=%d partitions=%d\n",
		cfg.K, cfg.P, cfg.NumPartitions)
	fmt.Fprintf(w, "  distinct vertices:  %d\n", s.DistinctVertices)
	fmt.Fprintf(w, "  duplicate vertices: %d\n", s.DuplicateVertices)
	fmt.Fprintf(w, "  edges (directed):   %d\n", s.GraphEdges)
	fmt.Fprintf(w, "  peak memory:        %.1f MB\n", float64(s.PeakMemoryBytes)/(1<<20))
	fmt.Fprintf(w, "virtual time (calibrated to the paper's hardware):\n")
	fmt.Fprintf(w, "  step 1 (MSP partitioning):    %.4fs (pipelined; %.4fs unpipelined)\n",
		s.Step1.Seconds, s.Step1.NonPipelinedSeconds)
	fmt.Fprintf(w, "  step 2 (subgraph hashing):    %.4fs (pipelined; %.4fs unpipelined)\n",
		s.Step2.Seconds, s.Step2.NonPipelinedSeconds)
	fmt.Fprintf(w, "  total:                        %.4fs\n", s.TotalSeconds)
	for si, st := range []parahash.StepStats{s.Step1, s.Step2} {
		shares := st.WorkloadShares()
		var parts []string
		for i, name := range st.ProcessorNames {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", name, 100*shares[i]))
		}
		fmt.Fprintf(w, "  step %d workload: %s\n", si+1, strings.Join(parts, ", "))
	}
	fmt.Fprintf(w, "performance model (Eq. 1-2):\n")
	for si, st := range []parahash.StepStats{s.Step1, s.Step2} {
		fmt.Fprintf(w, "  step %d predicted %.4fs, measured %.4fs (error %+.1f%%)",
			si+1, st.PredictedSeconds, st.Seconds, st.ModelErrorPct())
		if st.PredictedCoprocessingSeconds > 0 {
			fmt.Fprintf(w, "; ideal co-processing %.4fs", st.PredictedCoprocessingSeconds)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "hash table: %d inserts, %d updates (contention reduction %.2f), %.2f probes/access\n",
		s.Hash.Inserts, s.Hash.Updates, s.Hash.ContentionReduction(), s.Hash.ProbesPerAccess())
	if s.Superkmers.TotalPlain > 0 {
		fmt.Fprintf(w, "msp encoding: %d superkmers, %.1f MB encoded (%.0f%% of plain), %.1f MB decoded in step 2\n",
			s.Superkmers.TotalSuperkmers,
			float64(s.Superkmers.TotalEncoded)/(1<<20),
			100*float64(s.Superkmers.TotalEncoded)/float64(s.Superkmers.TotalPlain),
			float64(s.DecodedBytes)/(1<<20))
	}
	if s.Degraded() {
		fmt.Fprintf(w, "degraded mode: %d retries, %d requeues", s.TotalRetries(), s.TotalRequeues())
		if q := s.QuarantinedProcessors(); len(q) > 0 {
			fmt.Fprintf(w, "; quarantined: %s", strings.Join(q, ", "))
		}
		fmt.Fprintln(w)
	}
	if s.ResumedPartitions > 0 || s.RebuiltPartitions > 0 {
		fmt.Fprintf(w, "checkpoint resume: %d partitions resumed, %d rebuilt\n",
			s.ResumedPartitions, s.RebuiltPartitions)
	}
	if kills := s.TotalWatchdogKills(); kills > 0 {
		fmt.Fprintf(w, "watchdog: %d partition attempts exceeded the deadline and were retried\n", kills)
	}
	if cfg.MemoryBudgetBytes > 0 {
		st2 := s.Step2
		fmt.Fprintf(w, "memory budget: %.1f MB; %d admissions (%d queued, %.2fs waiting), peak admitted %.1f MB\n",
			float64(cfg.MemoryBudgetBytes)/(1<<20), st2.Admissions, st2.AdmissionWaits,
			st2.AdmissionWaitSeconds, float64(st2.PeakAdmittedBytes)/(1<<20))
	}
	if sp := s.Spill; sp.Partitions > 0 {
		fmt.Fprintf(w, "out-of-core: %d partitions spilled (%d auto-routed), %d runs, %.1f MB spilled, %d merge passes\n",
			sp.Partitions, sp.AutoRouted, sp.Runs, float64(sp.SpilledBytes)/(1<<20), sp.MergePasses)
	}
}
