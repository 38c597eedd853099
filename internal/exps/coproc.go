package exps

import (
	"fmt"
	"math"

	"parahash/internal/core"
	"parahash/internal/costmodel"
	"parahash/internal/fastq"
	"parahash/internal/hashtable"
	"parahash/internal/simulate"
)

// buildWith runs ParaHash on the given reads with a processor
// configuration, returning the run stats.
func buildWith(reads []fastq.Read, p simulate.Profile, opts Options,
	useCPU bool, gpus int, medium costmodel.Medium) (core.Stats, error) {
	cfg := experimentConfig(p, opts)
	cfg.UseCPU = useCPU
	cfg.NumGPUs = gpus
	cfg.Medium = medium
	cfg.KeepSubgraphs = false
	res, err := core.Build(reads, cfg)
	if err != nil {
		return core.Stats{}, err
	}
	return res.Stats, nil
}

// Fig11 regenerates Fig. 11: the workload distribution across co-processing
// devices — elapsed compute per processor, and measured vs ideal workload
// shares — for both steps (Chr14, CPU + 2 GPUs).
func Fig11(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	stats, err := buildWith(reads, p, opts, true, 2, costmodel.MediumMemCached)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "fig11",
		Title:  "Workload distribution with co-processing (Chr14, CPU+2GPU)",
		Header: []string{"Step", "Processor", "Busy (s)", "Partitions", "Real share", "Ideal share"},
	}
	var worstGap [2]float64
	for si, st := range []core.StepStats{stats.Step1, stats.Step2} {
		shares := st.WorkloadShares()
		ideal := st.IdealShares()
		for i, name := range st.ProcessorNames {
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("Step %d", si+1),
				name,
				fs(st.ProcessorBusy[i]),
				fmt.Sprintf("%d", st.ProcessorParts[i]),
				fs(shares[i]),
				fs(ideal[i]),
			})
			if gap := math.Abs(shares[i] - ideal[i]); gap > worstGap[si] {
				worstGap[si] = gap
			}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"max |real-ideal| share gap: Step1 %.3f, Step2 %.3f (paper: hashing matches ideal more closely)",
		worstGap[0], worstGap[1]))
	return rep, nil
}

// Fig12 regenerates Fig. 12: the stage time breakdown without pipelining
// (Input + Compute + Output, stacked) against the pipelined elapsed time,
// for both steps and both datasets.
func Fig12(opts Options) (Report, error) {
	rep := Report{
		ID:    "fig12",
		Title: "Pipelining: sequential stage sum vs pipelined elapsed",
		Header: []string{"Dataset", "Step", "Input (s)", "Compute (s)", "Output (s)",
			"No-pipeline (s)", "Pipelined (s)", "Saving"},
	}
	type ds struct {
		name   string
		get    func(Options) ([]fastq.Read, simulate.Profile, error)
		medium costmodel.Medium
	}
	for _, d := range []ds{
		{"Chr14", chr14Reads, costmodel.MediumMemCached},
		{"Bumblebee", bumblebeeReads, costmodel.MediumDisk},
	} {
		reads, p, err := d.get(opts)
		if err != nil {
			return Report{}, err
		}
		stats, err := buildWith(reads, p, opts, true, 2, d.medium)
		if err != nil {
			return Report{}, err
		}
		for si, st := range []core.StepStats{stats.Step1, stats.Step2} {
			var compute float64
			for _, b := range st.ProcessorBusy {
				compute += b
			}
			saving := 1 - st.Seconds/st.NonPipelinedSeconds
			rep.Rows = append(rep.Rows, []string{
				d.name,
				fmt.Sprintf("Step %d", si+1),
				fs(st.InputSeconds),
				fs(compute),
				fs(st.OutputSeconds),
				fs(st.NonPipelinedSeconds),
				fs(st.Seconds),
				fmt.Sprintf("%.0f%%", 100*saving),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"paper shape: pipelining helps when IO does not dominate (Chr14) and roughly halves elapsed when it does (Bumblebee)")
	return rep, nil
}

// processorSweep is the configuration axis of Figs. 13 and 14.
var processorSweep = []struct {
	name   string
	useCPU bool
	gpus   int
}{
	{"CPU", true, 0},
	{"1GPU", false, 1},
	{"2GPU", false, 2},
	{"CPU+1GPU", true, 1},
	{"CPU+2GPU", true, 2},
}

// modelComparison runs the processor sweep on a dataset/medium and compares
// measured step times against the Eq. (1)/(2) estimates.
func modelComparison(id, title string, reads []fastq.Read, p simulate.Profile,
	opts Options, medium costmodel.Medium) (Report, error) {
	rep := Report{
		ID:    id,
		Title: title,
		Header: []string{"Config",
			"Step1 real (s)", "Step1 est (s)",
			"Step2 real (s)", "Step2 est (s)"},
	}
	runs := make(map[string]core.Stats, len(processorSweep))
	for _, pc := range processorSweep {
		st, err := buildWith(reads, p, opts, pc.useCPU, pc.gpus, medium)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", pc.name, err)
		}
		runs[pc.name] = st
	}

	estimate := func(step int, pc struct {
		name   string
		useCPU bool
		gpus   int
	}) float64 {
		pick := func(s core.Stats) core.StepStats {
			if step == 1 {
				return s.Step1
			}
			return s.Step2
		}
		cpuSolo := pick(runs["CPU"]).Seconds
		gpuSolo := pick(runs["1GPU"]).Seconds
		var tCPU, tGPU float64
		if pc.useCPU {
			tCPU = cpuSolo
		}
		if pc.gpus > 0 {
			tGPU = gpuSolo
		}
		ideal := costmodel.EstimateCoprocessingSeconds(tCPU, tGPU, pc.gpus)
		// Under Case 2 the estimate is IO-bound (Eq. 1 / §IV-B Case 2).
		st := pick(runs[pc.name])
		ioEst := costmodel.EstimateIOBoundSeconds(st.InputSeconds, st.OutputSeconds, st.Partitions)
		if medium == costmodel.MediumDisk && ioEst > ideal {
			return ioEst
		}
		return ideal
	}

	var maxErr float64
	for _, pc := range processorSweep {
		st := runs[pc.name]
		e1, e2 := estimate(1, pc), estimate(2, pc)
		rep.Rows = append(rep.Rows, []string{
			pc.name,
			fs(st.Step1.Seconds), fs(e1),
			fs(st.Step2.Seconds), fs(e2),
		})
		for _, pair := range [][2]float64{{st.Step1.Seconds, e1}, {st.Step2.Seconds, e2}} {
			if pair[1] > 0 {
				if rel := math.Abs(pair[0]-pair[1]) / pair[1]; rel > maxErr {
					maxErr = rel
				}
			}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"max relative error real-vs-estimate: %.0f%% (paper: real tracks the model's shape)", 100*maxErr))
	return rep, nil
}

// Fig13 regenerates Fig. 13: real vs estimated elapsed time under Case 1
// (T_I/O << min{T_CPU, T_GPU}): Human Chr14 from a memory-cached file.
func Fig13(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	return modelComparison("fig13",
		"Real vs estimated, Case 1: T_I/O << min (Chr14, mem-cached)",
		reads, p, opts, costmodel.MediumMemCached)
}

// Fig14 regenerates Fig. 14: real vs estimated elapsed time under Case 2
// (T_I/O > max{T_CPU, T_GPU}): Bumblebee from disk.
func Fig14(opts Options) (Report, error) {
	reads, p, err := bumblebeeReads(opts)
	if err != nil {
		return Report{}, err
	}
	return modelComparison("fig14",
		"Real vs estimated, Case 2: T_I/O > max (Bumblebee, disk)",
		reads, p, opts, costmodel.MediumDisk)
}

// Contention regenerates the §III/§V-C1 claim that the state-transfer
// mechanism reduces key locking by ~80%: with duplicates ~5x distinct
// vertices, only the first touch of each vertex locks.
func Contention(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	cfg := experimentConfig(p, opts)
	parts, err := core.PartitionSuperkmers(reads, cfg)
	if err != nil {
		return Report{}, err
	}
	var hash hashtable.Snapshot
	var kmers int64
	for _, sks := range parts {
		var pk int64
		for _, sk := range sks {
			pk += int64(sk.NumKmers(cfg.K))
		}
		if pk == 0 {
			continue
		}
		table, err := constructTable(sks, cfg.K, hashtable.SizeForKmers(pk, cfg.Lambda, cfg.Alpha))
		if err != nil {
			return Report{}, err
		}
		hash.Add(table.Metrics().Snapshot())
		kmers += pk
	}
	rep := Report{
		ID:     "contention",
		Title:  "State-transfer lock reduction (Chr14)",
		Header: []string{"Metric", "Value"},
		Rows: [][]string{
			{"k-mer accesses", fmt.Sprintf("%d", kmers)},
			{"locked inserts (distinct vertices)", fmt.Sprintf("%d", hash.Inserts)},
			{"lock-free updates (duplicates)", fmt.Sprintf("%d", hash.Updates)},
			{"lock reduction", fmt.Sprintf("%.1f%%", 100*hash.ContentionReduction())},
		},
	}
	rep.Notes = append(rep.Notes,
		"paper: duplicates are ~5/6 of accesses, so partial locking removes ~80% of key locks")
	return rep, nil
}
