package exps

import (
	"errors"
	"fmt"
	"math"

	"parahash/internal/core"
	"parahash/internal/costmodel"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
	"parahash/internal/simulate"
)

// summarize is a local alias for the msp stats summary.
func summarize(stats []msp.PartitionStats) msp.StatsSummary {
	return msp.SummarizeStats(stats)
}

// Fig6 regenerates Fig. 6: the distribution of superkmer and k-mer counts
// per partition as the minimizer length P varies (Human Chr14, 32
// partitions).
func Fig6(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:    "fig6",
		Title: "Partition size distribution vs minimizer length P (Chr14, 32 partitions)",
		Header: []string{"P", "#Superkmers (M)", "Mean kmers/part (M)",
			"Stddev kmers (M)", "CV", "Max/Mean"},
	}
	var prevCV float64
	var cvRose bool
	for _, pm := range []int{5, 8, 11, 14, 17} {
		cfg := experimentConfig(p, opts)
		cfg.P = pm
		cfg.NumPartitions = 32
		stats, _, err := core.PartitionOnly(reads, cfg)
		if err != nil {
			return Report{}, err
		}
		s := summarize(stats)
		std := math.Sqrt(s.KmerVariance)
		cv := std / s.MeanKmers
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", pm),
			millions(s.TotalSuperkmers),
			millions(int64(s.MeanKmers)),
			millions(int64(std)),
			f3(cv),
			f2(float64(s.MaxKmers) / s.MeanKmers),
		})
		if prevCV > 0 && cv > prevCV {
			cvRose = true
		}
		prevCV = cv
	}
	rep.Notes = append(rep.Notes,
		"paper shape: variance shrinks and #superkmers grows as P increases 5->17")
	if cvRose {
		rep.Notes = append(rep.Notes, "WARNING: coefficient of variation was not monotone decreasing")
	}
	return rep, nil
}

// hashingSweep executes Step 2 per partition on the CPU once (for distinct
// counts and byte sizes) and prices both processors analytically.
type hashingSweepRow struct {
	np           int
	meanTableMB  float64
	cpuSeconds   float64
	gpuCompute   float64
	gpuTransfer  float64
	totalKmers   int64
	sumDistinct  int64
	maxTableMB   float64
	transferByte int64
}

// runHashingSweep measures one partition-count configuration.
func runHashingSweep(opts Options, p simulate.Profile, np int) (hashingSweepRow, error) {
	reads, _, err := chr14Reads(opts)
	if err != nil {
		return hashingSweepRow{}, err
	}
	cfg := experimentConfig(p, opts)
	cfg.NumPartitions = np
	parts, err := core.PartitionSuperkmers(reads, cfg)
	if err != nil {
		return hashingSweepRow{}, err
	}
	cal := cfg.Calibration
	row := hashingSweepRow{np: np}
	var tableBytesSum int64
	for _, sks := range parts {
		var kmers, encBytes int64
		for _, sk := range sks {
			kmers += int64(sk.NumKmers(cfg.K))
			encBytes += int64(msp.EncodedSize(len(sk.Bases)))
		}
		if kmers == 0 {
			continue
		}
		slots := hashtable.SizeForKmers(kmers, cfg.Lambda, cfg.Alpha)
		tableBytes := hashtable.MemoryBytesFor(slots)
		tableBytesSum += tableBytes
		if mb := float64(tableBytes) / (1 << 20); mb > row.maxTableMB {
			row.maxTableMB = mb
		}
		// One real construction per partition for distinct counts (and to
		// keep the sweep honest about the workload).
		table, err := constructTable(sks, cfg.K, slots)
		if err != nil {
			return hashingSweepRow{}, err
		}
		distinct := int64(table.Len())
		row.sumDistinct += distinct
		row.totalKmers += kmers

		graphBytes := graph.ModelBytes(int(distinct))
		transfer := encBytes + graphBytes
		row.transferByte += transfer
		row.cpuSeconds += cal.CPUStep2Seconds(kmers, cal.CPUThreads, tableBytes)
		row.gpuCompute += cal.GPUStep2Seconds(kmers, 0, tableBytes)
		row.gpuTransfer += cal.TransferSeconds(transfer)
	}
	row.meanTableMB = float64(tableBytesSum) / float64(np) / (1 << 20)
	return row, nil
}

// constructTable hashes a partition's superkmers with the resize-on-full
// fallback that Property 1 sizing normally makes unnecessary.
func constructTable(sks []msp.Superkmer, k, slots int) (*hashtable.Table, error) {
	for {
		table, err := hashtable.New(k, slots)
		if err != nil {
			return nil, err
		}
		var insErr error
		for _, sk := range sks {
			msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) {
				if insErr == nil {
					insErr = table.InsertEdge(e)
				}
			})
			if insErr != nil {
				break
			}
		}
		if insErr == nil {
			return table, nil
		}
		if !errors.Is(insErr, hashtable.ErrTableFull) {
			return nil, insErr
		}
		slots *= 2
	}
}

// npSweep is the partition-count axis shared by Figs. 7 and 8 / Table II.
var npSweep = []int{16, 32, 64, 128, 256, 512, 960}

// Fig7 regenerates Fig. 7: CPU hashing time vs GPU hashing time (transfer
// included) as the number of partitions varies.
func Fig7(opts Options) (Report, error) {
	_, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:    "fig7",
		Title: "CPU hashing vs GPU hashing (Chr14; GPU includes transfer)",
		Header: []string{"NP", "Mean table (MB)",
			"CPU 20-thr (s)", "GPU (s)", "GPU-CPU gap (s)", "Transfer (s)"},
	}
	var rows []hashingSweepRow
	for _, np := range npSweep {
		row, err := runHashingSweep(opts, p, np)
		if err != nil {
			return Report{}, err
		}
		rows = append(rows, row)
		gpuTotal := row.gpuCompute + row.gpuTransfer
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", row.np),
			f2(row.meanTableMB),
			fs(row.cpuSeconds),
			fs(gpuTotal),
			fs(gpuTotal - row.cpuSeconds),
			fs(row.gpuTransfer),
		})
	}
	first, last := rows[0], rows[len(rows)-1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"CPU time shrinks %.1fx from NP=16 to NP=960 (paper: both curves decrease)",
		first.cpuSeconds/last.cpuSeconds))
	gap := last.gpuCompute + last.gpuTransfer - last.cpuSeconds
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"at large NP the GPU-CPU gap (%.3fs) ~= transfer time (%.3fs): paper's key Fig.7/8 observation",
		gap, last.gpuTransfer))
	return rep, nil
}

// Fig8 regenerates Fig. 8: the GPU hashing time breakdown into kernel
// compute and host<->device transfer across partition counts.
func Fig8(opts Options) (Report, error) {
	_, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "fig8",
		Title:  "GPU hashing time breakdown (Chr14)",
		Header: []string{"NP", "Kernel (s)", "Transfer (s)", "Transfer bytes (MB)"},
	}
	var transfers []float64
	for _, np := range npSweep {
		row, err := runHashingSweep(opts, p, np)
		if err != nil {
			return Report{}, err
		}
		transfers = append(transfers, row.gpuTransfer)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", np),
			fs(row.gpuCompute),
			fs(row.gpuTransfer),
			megabytes(row.transferByte),
		})
	}
	minT, maxT := transfers[0], transfers[0]
	for _, t := range transfers {
		minT = math.Min(minT, t)
		maxT = math.Max(maxT, t)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"transfer time stays within [%.3f, %.3f]s across NP (paper: constant — total data size is fixed)",
		minT, maxT))
	return rep, nil
}

// Fig9 regenerates Fig. 9: concurrent CPU hashing scalability over thread
// counts 1..20 with the log-log power-law fit.
func Fig9(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	cfg := experimentConfig(p, opts)
	parts, err := core.PartitionSuperkmers(reads, cfg)
	if err != nil {
		return Report{}, err
	}
	cal := cfg.Calibration

	// Work: total kmers and mean table size from the standard partitioning.
	var kmers int64
	var tableBytes int64
	for _, sks := range parts {
		var pk int64
		for _, sk := range sks {
			pk += int64(sk.NumKmers(cfg.K))
		}
		kmers += pk
		tableBytes += hashtable.MemoryBytesFor(hashtable.SizeForKmers(pk, cfg.Lambda, cfg.Alpha))
	}
	meanTable := tableBytes / int64(len(parts))

	rep := Report{
		ID:     "fig9",
		Title:  "Concurrent CPU hashing scalability (Chr14)",
		Header: []string{"Threads", "Hashing time (s)", "Speedup"},
	}
	threadAxis := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	var xs, ys []float64
	var t1 float64
	for _, threads := range threadAxis {
		var total float64
		for _, sks := range parts {
			var pk int64
			for _, sk := range sks {
				pk += int64(sk.NumKmers(cfg.K))
			}
			total += cal.CPUStep2Seconds(pk, threads, meanTable)
		}
		if threads == 1 {
			t1 = total
		}
		xs = append(xs, float64(threads))
		ys = append(ys, total)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", threads), fs(total), f2(t1 / total),
		})
	}
	slope, _, err := costmodel.FitPowerLaw(xs, ys)
	if err != nil {
		return Report{}, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"log-log fit slope a = %.3f (paper: a close to -1, i.e. near-linear scaling)", slope))
	return rep, nil
}

// Fig10 regenerates Fig. 10: CPU hashing comparison with the SOAP strategy,
// broken into read-data and insertion/update time. Per the paper's setup,
// ParaHash runs with 20 partitions and P=K so each partition holds raw
// k-mers, matching SOAP's 20 local tables.
func Fig10(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	cfg := experimentConfig(p, opts)
	cal := cfg.Calibration
	threads := 20

	var kmers int64
	for _, rd := range reads {
		if n := len(rd.Bases) - cfg.K + 1; n > 0 {
			kmers += int64(n)
		}
	}

	// ParaHash: each thread reads only the <vertex, edge> pairs it hashes
	// (1/T of the stream) and inserts into the shared table.
	phRead := float64(kmers) / (cal.SOAPScanKmersPerSec * float64(threads))
	perPart := kmers / 20
	phTable := hashtable.MemoryBytesFor(hashtable.SizeForKmers(perPart, cfg.Lambda, cfg.Alpha))
	phInsert := cal.CPUStep2Seconds(kmers, threads, phTable)

	// SOAP: every thread scans the whole stream; inserts split T ways.
	soapRead := float64(kmers) / cal.SOAPScanKmersPerSec
	soapInsert := float64(kmers) / (cal.SOAPInsertKmersPerSec * float64(threads))

	rep := Report{
		ID:     "fig10",
		Title:  "CPU hashing vs SOAP strategy, time breakdown (Chr14, 20 threads, 20 partitions, P=K)",
		Header: []string{"System", "Read data (s)", "Insert/Update (s)", "Total (s)"},
		Rows: [][]string{
			{"ParaHash", fs(phRead), fs(phInsert), fs(phRead + phInsert)},
			{"SOAP-like", fs(soapRead), fs(soapInsert), fs(soapRead + soapInsert)},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"ParaHash reads 1/T of the pairs per thread -> %.0fx less read time (paper: fast in both phases)",
		soapRead/phRead))
	return rep, nil
}
