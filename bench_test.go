// Package parahash_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (via internal/exps) plus the
// ablation benchmarks for the design choices DESIGN.md calls out: the
// state-transfer partial locking, the 2-bit superkmer encoding, the
// Property 1 table pre-sizing, and the adjacency extension bases.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Per-experiment reports can be printed with cmd/experiments.
package parahash_test

import (
	"errors"
	"testing"

	"parahash"
	"parahash/internal/baseline/bloom"
	"parahash/internal/baseline/lockfree"
	"parahash/internal/costmodel"
	"parahash/internal/exps"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
	"parahash/internal/simulate"
)

// benchScale keeps benchmark iterations fast; cmd/experiments regenerates
// the same artefacts at full (scale 1) size.
const benchScale = 0.1

// benchExperiment drives one paper artefact end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := exps.Options{Scale: benchScale}
	for i := 0; i < b.N; i++ {
		rep, err := exps.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per table and figure of the evaluation section.

func BenchmarkTable1DatasetProperties(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2HashTableSize(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3EndToEnd(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkFig6MinimizerLength(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7CPUvsGPUHashing(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8GPUBreakdown(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9Scalability(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10SOAPComparison(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11Coprocessing(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12Pipelining(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13ModelCase1(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14ModelCase2(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkContentionReduction(b *testing.B)     { benchExperiment(b, "contention") }

// benchReads memoises a moderate workload for the ablations.
func benchReads(b *testing.B) []parahash.Read {
	b.Helper()
	d, err := simulate.Generate(simulate.HumanChr14Profile().Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	return d.Reads
}

func benchEdges(b *testing.B, reads []parahash.Read, k, p int) []msp.KmerEdge {
	b.Helper()
	var edges []msp.KmerEdge
	for _, rd := range reads {
		for _, sk := range msp.SuperkmersFromRead(nil, rd.Bases, k, p) {
			msp.ForEachKmerEdge(sk, k, func(e msp.KmerEdge) { edges = append(edges, e) })
		}
	}
	return edges
}

// BenchmarkAblationLocking compares the state-transfer table against the
// whole-entry-locking baseline on real wall-clock insertion time — the
// design choice of §III-C3.
func BenchmarkAblationLocking(b *testing.B) {
	reads := benchReads(b)
	edges := benchEdges(b, reads, 27, 11)
	slots := hashtable.SizeForKmers(int64(len(edges)), 2, 0.65)

	b.Run("state-transfer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table, err := hashtable.New(27, slots)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range edges {
				if err := table.InsertEdge(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(table.Metrics().Snapshot().ContentionReduction()*100, "lock-reduction-%")
		}
	})
	b.Run("whole-entry-mutex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table, err := hashtable.NewMutexTable(27, slots)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range edges {
				if err := table.InsertEdge(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(table.LockAcquisitions())/float64(len(edges)), "locks/access")
		}
	})
}

// BenchmarkAblationEncoding measures the disk-volume effect of the 2-bit
// superkmer encoding (§III-B: encoded output is ~1/4 of plain text).
func BenchmarkAblationEncoding(b *testing.B) {
	reads := benchReads(b)
	for i := 0; i < b.N; i++ {
		var encoded, plain int64
		sc := msp.Scanner{K: 27, P: 11}
		var sks []msp.Superkmer
		for _, rd := range reads {
			sks = sc.Superkmers(sks[:0], rd.Bases)
			for _, sk := range sks {
				encoded += int64(msp.EncodedSize(len(sk.Bases)))
				plain += int64(msp.PlainEncodedSize(len(sk.Bases)))
			}
		}
		b.ReportMetric(float64(encoded)/float64(plain), "encoded/plain")
	}
}

// BenchmarkAblationPresize compares Property 1 pre-sizing against starting
// tiny and growing — the resizing cost §III-C avoids.
func BenchmarkAblationPresize(b *testing.B) {
	reads := benchReads(b)
	edges := benchEdges(b, reads, 27, 11)

	insertAll := func(b *testing.B, startSlots int) {
		table, err := hashtable.New(27, startSlots)
		if err != nil {
			b.Fatal(err)
		}
		grows := 0
		for _, e := range edges {
			for {
				err := table.InsertEdge(e)
				if err == nil {
					break
				}
				if !errors.Is(err, hashtable.ErrTableFull) {
					b.Fatal(err)
				}
				if table, err = table.Grow(); err != nil {
					b.Fatal(err)
				}
				grows++
			}
		}
		b.ReportMetric(float64(grows), "grows")
	}

	b.Run("presized", func(b *testing.B) {
		slots := hashtable.SizeForKmers(int64(len(edges)), 2, 0.65)
		for i := 0; i < b.N; i++ {
			insertAll(b, slots)
		}
	})
	b.Run("grow-from-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			insertAll(b, 1024)
		}
	})
}

// BenchmarkAblationExtensionBases quantifies what the paper's two extra
// base pairs per superkmer preserve: without them, the boundary adjacency
// observations are lost and the graph's edge weights are wrong.
func BenchmarkAblationExtensionBases(b *testing.B) {
	reads := benchReads(b)
	for i := 0; i < b.N; i++ {
		var with, without int64
		for _, rd := range reads {
			for _, sk := range msp.SuperkmersFromRead(nil, rd.Bases, 27, 11) {
				msp.ForEachKmerEdge(sk, 27, func(e msp.KmerEdge) {
					if e.Left != msp.NoBase {
						with++
					}
					if e.Right != msp.NoBase {
						with++
					}
				})
				// Without extensions, the superkmer's boundary kmers lose
				// their outward observations.
				stripped := sk
				stripped.HasLeft, stripped.HasRight = false, false
				msp.ForEachKmerEdge(stripped, 27, func(e msp.KmerEdge) {
					if e.Left != msp.NoBase {
						without++
					}
					if e.Right != msp.NoBase {
						without++
					}
				})
			}
		}
		b.ReportMetric(100*float64(with-without)/float64(with), "edges-lost-%")
	}
}

// BenchmarkHashingThroughput measures raw concurrent-table insertion speed
// on this host (wall clock, not virtual time).
func BenchmarkHashingThroughput(b *testing.B) {
	reads := benchReads(b)
	edges := benchEdges(b, reads, 27, 11)
	slots := hashtable.SizeForKmers(int64(len(edges)), 2, 0.65)
	table, err := hashtable.New(27, slots)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := table.InsertEdge(edges[i%len(edges)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSPThroughput measures raw superkmer scanning speed.
func BenchmarkMSPThroughput(b *testing.B) {
	reads := benchReads(b)
	sc := msp.Scanner{K: 27, P: 11}
	var sks []msp.Superkmer
	var bases int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := reads[i%len(reads)]
		sks = sc.Superkmers(sks[:0], rd.Bases)
		bases += int64(len(rd.Bases))
	}
	b.ReportMetric(float64(bases)/b.Elapsed().Seconds()/1e6, "Mbases/s")
}

// BenchmarkEq2Estimate exercises the analytic performance model itself.
func BenchmarkEq2Estimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costmodel.EstimateCoprocessingSeconds(132, 144, 2)
	}
}

// BenchmarkCounterBaselines contrasts the full <vertex, edges> construction
// against the counting-only baselines the paper's related work surveys:
// the Jellyfish-style lock-free CAS counter [5] and the BFCounter-style
// Bloom counter [10]. The counters are faster and smaller but produce no
// adjacency — the gap ParaHash's table exists to close.
func BenchmarkCounterBaselines(b *testing.B) {
	reads := benchReads(b)
	edges := benchEdges(b, reads, 27, 11)
	slots := hashtable.SizeForKmers(int64(len(edges)), 2, 0.65)

	b.Run("parahash-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table, err := hashtable.New(27, slots)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range edges {
				if err := table.InsertEdge(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(table.MemoryBytes())/(1<<20), "MB")
		}
	})
	b.Run("lockfree-counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := lockfree.New(slots)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range edges {
				if err := c.Add(e.Canon); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Capacity()*8)/(1<<20), "MB")
		}
	})
	b.Run("bloom-counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := bloom.NewCounter(len(edges)/2, 0.01)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range edges {
				c.Add(e.Canon)
			}
			b.ReportMetric(float64(c.MemoryBytes())/(1<<20), "MB")
		}
	})
}
