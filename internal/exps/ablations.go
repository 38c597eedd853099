package exps

import (
	"context"
	"fmt"
	"time"

	"parahash/internal/core"
	"parahash/internal/device"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
)

// The ablation experiments isolate the design choices §III of the paper
// argues for. Unlike the figure reproductions (virtual time), the locking
// and pre-sizing ablations also measure real wall-clock on this host — they
// compare two implementations of the same kernel, so relative wall-clock
// is meaningful without calibration. The wall times go in the notes, not
// the rows: the rows (what -csv writes) are counts, the same on every run.

// chr14Edges materialises the Chr14 stand-in's canonical k-mer edge
// stream at the run's scale.
func chr14Edges(opts Options) ([]msp.KmerEdge, error) {
	reads, _, err := chr14Reads(opts)
	if err != nil {
		return nil, err
	}
	var edges []msp.KmerEdge
	var sks []msp.Superkmer
	sc := msp.Scanner{K: 27, P: 11}
	for _, rd := range reads {
		sks = sc.Superkmers(sks[:0], rd.Bases)
		for _, sk := range sks {
			msp.ForEachKmerEdge(sk, 27, func(e msp.KmerEdge) { edges = append(edges, e) })
		}
	}
	return edges, nil
}

// AblationLocking compares the state-transfer table against whole-entry
// mutex locking (§III-C3) on real wall-clock and lock counts.
func AblationLocking(opts Options) (Report, error) {
	edges, err := chr14Edges(opts)
	if err != nil {
		return Report{}, err
	}
	slots := hashtable.SizeForKmers(int64(len(edges)), 2, 0.65)

	stTable, err := hashtable.New(27, slots)
	if err != nil {
		return Report{}, err
	}
	start := time.Now()
	for _, e := range edges {
		if err := stTable.InsertEdge(e); err != nil {
			return Report{}, err
		}
	}
	stElapsed := time.Since(start)
	locked := stTable.Metrics().Snapshot().Inserts

	mxTable, err := hashtable.NewMutexTable(27, slots)
	if err != nil {
		return Report{}, err
	}
	start = time.Now()
	for _, e := range edges {
		if err := mxTable.InsertEdge(e); err != nil {
			return Report{}, err
		}
	}
	mxElapsed := time.Since(start)

	rep := Report{
		ID:     "ablation-locking",
		Title:  "State-transfer partial locking vs whole-entry mutexes (lock counts)",
		Header: []string{"Table", "Lock acquisitions", "Locks/access"},
		Rows: [][]string{
			{"state-transfer", fmt.Sprintf("%d", locked), f3(float64(locked) / float64(len(edges)))},
			{"whole-entry-mutex", fmt.Sprintf("%d", mxTable.LockAcquisitions()),
				f3(float64(mxTable.LockAcquisitions()) / float64(len(edges)))},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"state transfer locks on %.0f%% of accesses (paper: ~20%%, the 80%% reduction)",
		100*float64(locked)/float64(len(edges))),
		fmt.Sprintf("host wall-clock: state-transfer %v, whole-entry-mutex %v",
			stElapsed.Round(time.Millisecond), mxElapsed.Round(time.Millisecond)))
	return rep, nil
}

// AblationEncoding measures the 2-bit superkmer encoding's storage effect
// (§III-B) against the plain-text representation of the original MSP.
func AblationEncoding(opts Options) (Report, error) {
	reads, _, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	var encoded, plain, kmerBytes int64
	var sks []msp.Superkmer
	sc := msp.Scanner{K: 27, P: 11}
	for _, rd := range reads {
		sks = sc.Superkmers(sks[:0], rd.Bases)
		for _, sk := range sks {
			encoded += int64(msp.EncodedSize(len(sk.Bases)))
			plain += int64(msp.PlainEncodedSize(len(sk.Bases)))
			kmerBytes += int64(sk.NumKmers(27)) * 27
		}
	}
	rep := Report{
		ID:     "ablation-encoding",
		Title:  "Superkmer partition storage: 2-bit encoded vs plain vs raw kmers",
		Header: []string{"Representation", "Bytes (MB)", "vs plain"},
		Rows: [][]string{
			{"raw kmer text (no superkmers)", megabytes(kmerBytes), f2(float64(kmerBytes) / float64(plain))},
			{"plain superkmers (original MSP)", megabytes(plain), "1.00"},
			{"2-bit encoded superkmers (ParaHash)", megabytes(encoded), f2(float64(encoded) / float64(plain))},
		},
	}
	rep.Notes = append(rep.Notes,
		"paper: encoding cuts partition storage to ~1/4 of the non-encoded MSP output")
	return rep, nil
}

// AblationPresize compares Property 1 pre-sizing against growing from a
// small table (§III-C1) on real wall-clock.
func AblationPresize(opts Options) (Report, error) {
	edges, err := chr14Edges(opts)
	if err != nil {
		return Report{}, err
	}
	insertAll := func(startSlots int) (time.Duration, int, error) {
		table, err := hashtable.New(27, startSlots)
		if err != nil {
			return 0, 0, err
		}
		grows := 0
		start := time.Now()
		for _, e := range edges {
			for {
				err := table.InsertEdge(e)
				if err == nil {
					break
				}
				if table, err = table.Grow(); err != nil {
					return 0, grows, err
				}
				grows++
			}
		}
		return time.Since(start), grows, nil
	}
	presized := hashtable.SizeForKmers(int64(len(edges)), 2, 0.65)
	tPre, growsPre, err := insertAll(presized)
	if err != nil {
		return Report{}, err
	}
	tGrow, growsGrow, err := insertAll(1024)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "ablation-presize",
		Title:  "Property 1 pre-sizing vs resize-on-demand (rebuilds)",
		Header: []string{"Strategy", "Rebuilds"},
		Rows: [][]string{
			{"pre-sized (λ/(4α)·N_kmer)", fmt.Sprintf("%d", growsPre)},
			{"grow from 1024 slots", fmt.Sprintf("%d", growsGrow)},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"pre-sizing avoided %d stop-the-world rebuilds (paper: \"costly hash table resizing is avoided\")",
		growsGrow),
		fmt.Sprintf("host wall-clock: pre-sized %v, grow from 1024 slots %v",
			tPre.Round(time.Millisecond), tGrow.Round(time.Millisecond)))
	return rep, nil
}

// AblationExtensions quantifies the adjacency loss without the paper's two
// extension base pairs per superkmer (§III-B) — the defect of the original
// MSP output that ParaHash fixes.
func AblationExtensions(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	cfg := experimentConfig(p, opts)
	parts, err := core.PartitionSuperkmers(reads, cfg)
	if err != nil {
		return Report{}, err
	}
	var with, without int64
	for _, sks := range parts {
		for _, sk := range sks {
			msp.ForEachKmerEdge(sk, cfg.K, func(e msp.KmerEdge) {
				if e.Left != msp.NoBase {
					with++
				}
				if e.Right != msp.NoBase {
					with++
				}
			})
			stripped := sk
			stripped.HasLeft, stripped.HasRight = false, false
			msp.ForEachKmerEdge(stripped, cfg.K, func(e msp.KmerEdge) {
				if e.Left != msp.NoBase {
					without++
				}
				if e.Right != msp.NoBase {
					without++
				}
			})
		}
	}
	lost := 100 * float64(with-without) / float64(with)
	rep := Report{
		ID:     "ablation-extensions",
		Title:  "Adjacency preserved by superkmer extension bases",
		Header: []string{"Variant", "Edge observations", "Lost"},
		Rows: [][]string{
			{"with extension bases (ParaHash)", fmt.Sprintf("%d", with), "0.0%"},
			{"without (original MSP)", fmt.Sprintf("%d", without), fmt.Sprintf("%.1f%%", lost)},
		},
	}
	rep.Notes = append(rep.Notes,
		"without extensions the De Bruijn graph of Definition 3 is not reconstructible from partitions")
	return rep, nil
}

// AblationDivergence runs the simulated GPU's SIMT hashing kernel over a
// partition-count sweep and reports the measured intra-warp divergence:
// the mean ratio of the slowest lane's probe walk to the mean lane's
// within each 32-lane warp. This is the §III-D effect — "different threads
// assigned with different kmers within a warp diverge to different walk
// length when visiting the hash table slots" — made measurable.
func AblationDivergence(opts Options) (Report, error) {
	reads, p, err := chr14Reads(opts)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ID:     "ablation-divergence",
		Title:  "GPU warp divergence in hashing (slowest lane / mean lane per warp)",
		Header: []string{"NP", "Warp divergence", "Distinct/kmers"},
	}
	for _, np := range []int{16, 64, 256} {
		cfg := experimentConfig(p, opts)
		cfg.NumPartitions = np
		parts, err := core.PartitionSuperkmers(reads, cfg)
		if err != nil {
			return Report{}, err
		}
		gpu := &device.GPU{}
		var divSum float64
		var divN int
		var kmers, distinct int64
		for _, sks := range parts {
			if len(sks) == 0 {
				continue
			}
			var pk int64
			for _, sk := range sks {
				pk += int64(sk.NumKmers(cfg.K))
			}
			slots := hashtable.SizeForKmers(pk, cfg.Lambda, cfg.Alpha)
			out, err := gpu.Step2(context.Background(), sks, cfg.K, slots)
			if err != nil {
				// Resize path: double until it fits (rare, tiny partitions).
				for {
					slots *= 2
					if out, err = gpu.Step2(context.Background(), sks, cfg.K, slots); err == nil {
						break
					}
				}
			}
			if out.WarpDivergence > 0 {
				divSum += out.WarpDivergence
				divN++
			}
			kmers += out.Kmers
			distinct += out.Distinct
		}
		if divN == 0 {
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", np),
			f2(divSum / float64(divN)),
			f2(float64(distinct) / float64(kmers)),
		})
	}
	rep.Notes = append(rep.Notes,
		"divergence > 1 means warps stall on their slowest lane — why GPU hashing does not beat the CPU despite more threads (§III-D)")
	return rep, nil
}
