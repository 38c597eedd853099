package main

// The traced pass: per-layer numbers from outside the product code. A hooked
// build runs the real in-process builder with Config.Trace set and timing
// wrappers installed through Config.ProcWrap and Config.StoreWrap; a replay
// calls each layer's public functions in pipeline order on the same input,
// each stage fed the previous stage's real output. README.md lists every
// internal symbol this file depends on.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"parahash"
	"parahash/internal/device"
	"parahash/internal/diskstore"
	"parahash/internal/dist"
	"parahash/internal/dna"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/msp"
	"parahash/internal/obs"
	"parahash/internal/pipeline"
	"parahash/internal/server"
	"parahash/internal/store"
)

// buildConfig is the library configuration equivalent to a build workload's
// command line (cmd/parahash maps its flags onto exactly these fields).
func (e *env) buildConfig(kind, inPath, ckDir string) parahash.Config {
	cfg := parahash.DefaultConfig()
	cfg.K, cfg.P, cfg.NumPartitions = kmerLen, minimizerLen, numPartitions
	cfg.NumGPUs = 0
	cfg.CPUThreads = e.nproc
	cfg.Checkpoint = parahash.CheckpointConfig{Dir: ckDir, InputLabel: "file:" + inPath}
	switch kind {
	case "spill":
		cfg.PartitionMemoryBudgetBytes = spillBudget(e.scale)
	case "dist":
		cfg.CPUThreads = 1
	case "serve": // parahashd's defaults
		cfg.P = 11
	}
	return cfg
}

// hooks are the timing wrappers of one hooked build.
type hooks struct {
	tr     *tracer
	parent int
	trace  *obs.Trace

	mu                 sync.Mutex
	step1, step2       time.Duration
	step1Calls         int
	step2Calls         int
	step2Max           time.Duration
	writeS, closeS     time.Duration
	subgraphWriteClose time.Duration // write+close time of subgraphs/ files only
	readS              time.Duration
	writeBytes         int64
	readBytes          int64
	writeFiles         int
}

func (h *hooks) install(cfg *parahash.Config) {
	h.trace = obs.NewTraceAt(h.tr.epoch)
	cfg.Trace = h.trace
	cfg.ProcWrap = func(procs []device.Processor) []device.Processor {
		for i, p := range procs {
			procs[i] = &timedProc{Processor: p, h: h}
		}
		return procs
	}
	cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		return &timedStore{PartitionStore: st, h: h}
	}
}

type timedProc struct {
	device.Processor
	h *hooks
}

func (p *timedProc) Step1(ctx context.Context, reads []fastq.Read, k, pl int) (device.Step1Output, error) {
	start := time.Now()
	out, err := p.Processor.Step1(ctx, reads, k, pl)
	end := time.Now()
	p.h.tr.add(p.h.parent, "device.step1", start, end)
	p.h.mu.Lock()
	p.h.step1 += end.Sub(start)
	p.h.step1Calls++
	p.h.mu.Unlock()
	return out, err
}

func (p *timedProc) Step2(ctx context.Context, sks []msp.Superkmer, k, slots int) (device.Step2Output, error) {
	start := time.Now()
	out, err := p.Processor.Step2(ctx, sks, k, slots)
	end := time.Now()
	p.h.tr.add(p.h.parent, "device.step2", start, end)
	p.h.mu.Lock()
	d := end.Sub(start)
	p.h.step2 += d
	p.h.step2Calls++
	if d > p.h.step2Max {
		p.h.step2Max = d
	}
	p.h.mu.Unlock()
	return out, err
}

type timedStore struct {
	store.PartitionStore
	h *hooks
}

func (s *timedStore) Create(name string) (io.WriteCloser, error) {
	w, err := s.PartitionStore.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedWriter{w: w, h: s.h, subgraph: filepath.Dir(name) == "subgraphs", created: time.Now()}, nil
}

func (s *timedStore) Open(name string) (io.Reader, error) {
	start := time.Now()
	r, err := s.PartitionStore.Open(name)
	s.h.mu.Lock()
	s.h.readS += time.Since(start)
	s.h.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &timedReader{r: r, h: s.h}, nil
}

type timedWriter struct {
	w        io.WriteCloser
	h        *hooks
	subgraph bool
	created  time.Time
	busy     time.Duration
	bytes    int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.w.Write(p)
	w.busy += time.Since(start)
	w.bytes += int64(n)
	return n, err
}

func (w *timedWriter) Close() error {
	start := time.Now()
	err := w.w.Close()
	end := time.Now()
	w.h.tr.add(w.h.parent, "store.write", w.created, end)
	w.h.mu.Lock()
	w.h.writeS += w.busy
	w.h.closeS += end.Sub(start)
	w.h.writeBytes += w.bytes
	w.h.writeFiles++
	if w.subgraph {
		w.h.subgraphWriteClose += w.busy + end.Sub(start)
	}
	w.h.mu.Unlock()
	return err
}

type timedReader struct {
	r io.Reader
	h *hooks
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	d := time.Since(start)
	r.h.mu.Lock()
	r.h.readS += d
	r.h.readBytes += int64(n)
	r.h.mu.Unlock()
	return n, err
}

// inprocBuild runs the workload's build through the library, the way its
// binary does, and publishes the graph file like the CLI's -out. With hooks
// it records the core.build span and everything under it.
func (e *env) inprocBuild(r *recorder, parent int, kind string, in *input, dir string, h *hooks) (wall time.Duration, err error) {
	ck, out := filepath.Join(dir, "ck-inproc"), filepath.Join(dir, "g-inproc.dbg")
	defer os.RemoveAll(ck)
	defer os.Remove(out)
	cfg := e.buildConfig(kind, in.path, ck)
	ctx := context.Background()
	start := time.Now()
	name := "build.unhooked"
	if h != nil {
		name = "core.build"
	}
	id := r.tr.begin(parent, name)
	if h != nil {
		h.parent = id
		h.install(&cfg)
	}

	var res *parahash.Result
	f, err := os.Open(in.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch kind {
	case "incore", "spill": // the CLI streams file inputs
		res, err = parahash.BuildFromReaderContext(ctx, f, cfg)
	case "serve": // parahashd parses the stored input, then builds
		var reads []parahash.Read
		if reads, err = parahash.ParseReads(f); err == nil {
			res, err = parahash.BuildContext(ctx, reads, cfg)
		}
	case "dist":
		res, err = e.distBuild(ctx, r, id, f, cfg, h != nil)
	}
	r.tr.finish(id)
	if err != nil {
		return 0, err
	}
	r.tr.timed(parent, "cli.write_out", func() {
		var g *os.File
		if g, err = os.Create(out); err != nil {
			return
		}
		if err = res.Graph.Write(g); err == nil {
			err = g.Close()
		}
	})
	wall = time.Since(start)
	if err != nil {
		return 0, err
	}
	problem := ""
	if sum, _, err := shaOfFile(out); err != nil {
		problem = err.Error()
	} else if sum != in.oracleSHA {
		problem = fmt.Sprintf("in-process %s build SHA-256 %x differs from the oracle's %x", kind, sum[:6], in.oracleSHA[:6])
	}
	r.op(problem)
	return wall, nil
}

// distBuild is the coordinator side of `parahash -workers N`, with worker
// subprocesses re-executing the compiled CLI exactly as it does itself.
func (e *env) distBuild(ctx context.Context, r *recorder, parent int, f io.Reader, cfg parahash.Config, report bool) (*parahash.Result, error) {
	reads, err := parahash.ParseReads(f)
	if err != nil {
		return nil, err
	}
	var plan *parahash.DistPlan
	prepare := r.tr.timed(parent, "core.dist_prepare", func() {
		plan, err = parahash.PrepareDistBuild(ctx, reads, cfg)
	})
	if err != nil {
		return nil, err
	}
	wargs := []string{"-k", strconv.Itoa(cfg.K), "-p", strconv.Itoa(cfg.P), "-partitions", strconv.Itoa(cfg.NumPartitions),
		"-threads", strconv.Itoa(cfg.CPUThreads), "-gpus", "0", "-medium", "mem",
		"-lambda", fmt.Sprint(cfg.Lambda), "-alpha", fmt.Sprint(cfg.Alpha),
		"-table", "statetransfer", "-checkpoint-dir", cfg.Checkpoint.Dir}
	transport := &dist.ProcTransport{Command: func(id string) (*exec.Cmd, error) {
		return exec.Command(filepath.Join(e.bin, "parahash"), append(wargs[:len(wargs):len(wargs)], "-dist-worker="+id)...), nil
	}}
	var stats parahash.DistStats
	run := r.tr.timed(parent, "dist.run", func() {
		stats, err = parahash.RunDistributed(ctx, plan, transport, parahash.DistOptions{Workers: e.nproc})
	})
	if err != nil {
		return nil, err
	}
	var res *parahash.Result
	finish := r.tr.timed(parent, "core.dist_finish", func() { res, err = plan.Finish(stats) })
	if report {
		r.set("core.dist_prepare_s", prepare.Seconds())
		r.set("dist.run_s", run.Seconds())
		r.set("core.dist_finish_s", finish.Seconds())
		r.set("dist.lease_grants", float64(stats.LeaseGrants))
		r.set("dist.lease_expiries", float64(stats.LeaseExpiries))
		r.set("dist.reassignments", float64(stats.Reassignments))
		r.set("dist.fenced_writes", float64(stats.FencedWrites))
		r.set("dist.workers_spawned", float64(stats.Spawned))
		if stats.LeaseExpiries > 0 || stats.Reassignments > 0 {
			r.tainted = append(r.tainted, fmt.Sprintf("dist: %d lease expiries, %d reassignments in a fault-free run", stats.LeaseExpiries, stats.Reassignments))
		}
	}
	return res, err
}

// reportHooked turns one hooked build's spans and counters into metrics.
func reportHooked(r *recorder, h *hooks) {
	root := r.tr.get(h.parent)
	rootDur := root.End - root.Start
	r.set("core.build_s", rootDur.Seconds())

	// Config.Trace's wall spans share the tracer's epoch, so they drop into
	// the span tree as children of core.build.
	stage := map[string]time.Duration{}
	type window struct{ lo, hi time.Duration }
	steps := map[string]*window{}
	for _, s := range h.trace.Spans() {
		if s.Clock != obs.ClockWall {
			continue
		}
		lo, hi := time.Duration(s.Start*float64(time.Second)), time.Duration(s.End*float64(time.Second))
		r.tr.add(h.parent, "pipeline."+s.Step+"."+s.Stage, r.tr.epoch.Add(lo), r.tr.epoch.Add(hi))
		stage[s.Step+"."+s.Stage] += hi - lo
		if w := steps[s.Step]; w == nil {
			steps[s.Step] = &window{lo, hi}
		} else {
			if lo < w.lo {
				w.lo = lo
			}
			if hi > w.hi {
				w.hi = hi
			}
		}
	}
	input, compute, output := stage["step2."+pipeline.StageRead], stage["step2."+pipeline.StageCompute], stage["step2."+pipeline.StageWrite]
	r.set("pipeline.step2.input_s", input.Seconds())
	r.set("pipeline.step2.compute_s", compute.Seconds())
	r.set("pipeline.step2.output_s", output.Seconds())
	if output > 0 {
		r.set("pipeline.step2.output_other_s", (output - h.subgraphWriteClose).Seconds())
	}
	// Step 2 runs in the pipeline in every in-process build; Step 1 does
	// only for in-memory reads (a streamed build scans chunk by chunk), so
	// Step 1 is "everything before Step 2 began".
	if w := steps["step2"]; w != nil {
		r.set("core.step1_s", (w.lo - root.Start).Seconds())
		r.set("core.step2_s", (w.hi - w.lo).Seconds())
		r.set("core.finish_s", (root.End - w.hi).Seconds())
	}

	r.set("device.step1_s", h.step1.Seconds())
	r.set("device.step1_calls", float64(h.step1Calls))
	r.set("device.step2_s", h.step2.Seconds())
	r.set("device.step2_calls", float64(h.step2Calls))
	r.set("device.step2_max_s", h.step2Max.Seconds())
	r.set("store.write_s", h.writeS.Seconds())
	r.set("store.close_s", h.closeS.Seconds())
	r.set("store.write_bytes", float64(h.writeBytes))
	r.set("store.write_files", float64(h.writeFiles))
	r.set("store.read_s", h.readS.Seconds())
	r.set("store.read_bytes", float64(h.readBytes))
	r.set("trace.coverage_share", 1-float64(r.tr.selfTime(h.parent))/float64(rootDur))
}

// hookedAndUnhooked runs the workload's in-process build three times —
// a discarded first one so that neither measured build pays for growing the
// heap, then hooked, then unhooked — reports the hooked build's layers and
// what the hooks cost, and returns the unhooked wall time.
func (e *env) hookedAndUnhooked(r *recorder, parent int, kind string, in *input, dir string) (time.Duration, error) {
	if _, err := e.inprocBuild(r, parent, kind, in, dir, nil); err != nil {
		return 0, err
	}
	h := &hooks{tr: r.tr}
	hooked, err := e.inprocBuild(r, parent, kind, in, dir, h)
	if err != nil {
		return 0, err
	}
	unhooked, err := e.inprocBuild(r, parent, kind, in, dir, nil)
	if err != nil {
		return 0, err
	}
	reportHooked(r, h)
	r.set("trace.overhead_share", (hooked-unhooked).Seconds()/unhooked.Seconds())
	return unhooked, nil
}

// traceBuild is the traced pass of a build workload.
func (e *env) traceBuild(r *recorder, kind, dir string, in *input) error {
	root := r.tr.begin(0, "traced."+kind)
	defer r.tr.finish(root)

	// One CLI run calibrates the pass: how far the library path is from the
	// binary.
	ck, out := filepath.Join(dir, "ck"), filepath.Join(dir, "g.dbg")
	var cli usage
	var err error
	r.tr.timed(root, "cli.parahash", func() {
		cli, err = runTimed(filepath.Join(e.bin, "parahash"), e.cliArgs(kind, in.path, ck, out)...)
	})
	if err != nil {
		return err
	}
	r.op(checkBuild(r, in, cli.stdout, ck, out))
	os.RemoveAll(ck)
	os.Remove(out)

	unhooked, err := e.hookedAndUnhooked(r, root, kind, in, dir)
	if err != nil {
		return err
	}
	r.set("trace.inproc_vs_cli_ratio", unhooked.Seconds()/cli.wall.Seconds())

	budget := int64(0)
	if kind == "spill" {
		budget = spillBudget(e.scale)
	}
	return e.replay(r, root, in, minimizerLen, budget, dir)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// replay times each layer's public functions in pipeline order. budget > 0
// routes Step 2 through the out-of-core functions instead of the hash table,
// as the spill workload's builds do.
func (e *env) replay(r *recorder, parent int, in *input, p int, budget int64, dir string) error {
	root := r.tr.begin(parent, "replay")
	defer r.tr.finish(root)
	const k = kmerLen
	var err error

	// fastq
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer f.Close()
	var reads []fastq.Read
	d := r.tr.timed(root, "fastq.parse", func() {
		var fr *fastq.Reader
		if fr, err = fastq.NewAutoReader(f); err != nil {
			return
		}
		for {
			var rd fastq.Read
			if rd, err = fr.Next(); err != nil {
				break
			}
			reads = append(reads, rd)
		}
		if err == io.EOF {
			err = nil
		}
	})
	if err != nil {
		return err
	}
	r.set("fastq.parse_s", d.Seconds())
	r.set("fastq.parse_mb_per_s", float64(in.fastqBytes)/1e6/d.Seconds())
	r.set("fastq.reads", float64(len(reads)))

	// msp, Step 1: scan, then encode into per-partition buffers.
	var sks []msp.Superkmer
	var bases int
	sc := msp.Scanner{K: k, P: p, NumPartitions: numPartitions}
	d = r.tr.timed(root, "msp.scan", func() {
		for _, rd := range reads {
			sks = sc.Superkmers(sks, rd.Bases)
			bases += len(rd.Bases)
		}
	})
	var kmers int64
	for i := range sks {
		kmers += int64(sks[i].NumKmers(k))
	}
	r.set("msp.scan_s", d.Seconds())
	r.set("msp.scan_ns_per_base", float64(d.Nanoseconds())/float64(bases))
	r.set("msp.superkmers", float64(len(sks)))
	r.set("msp.kmers", float64(kmers))

	files := make([]bytes.Buffer, numPartitions)
	d = r.tr.timed(root, "msp.encode", func() {
		var w *msp.Writer
		w, err = msp.NewPartitionWriter(k, numPartitions, func(i int) (io.WriteCloser, error) { return nopCloser{&files[i]}, nil })
		if err != nil {
			return
		}
		if _, _, err = w.WriteBatch(sks); err == nil {
			err = w.Close()
		}
	})
	if err != nil {
		return err
	}
	var encoded int
	for i := range files {
		encoded += files[i].Len()
	}
	r.set("msp.encode_s", d.Seconds())
	r.set("msp.encode_ns_per_superkmer", float64(d.Nanoseconds())/float64(len(sks)))
	r.set("msp.encoded_bytes", float64(encoded))
	nSuperkmers := len(sks)
	reads, sks = nil, nil

	// msp, Step 2 input: decode each partition as core's loader does.
	parts := make([][]msp.Superkmer, numPartitions)
	d = r.tr.timed(root, "msp.decode", func() {
		for i := range files {
			dec := msp.NewDecoder(bytes.NewReader(files[i].Bytes()))
			dec.RequireFooter = true
			for {
				var sk msp.Superkmer
				if sk, err = dec.Next(); err != nil {
					break
				}
				sk.Bases = append([]dna.Base(nil), sk.Bases...)
				parts[i] = append(parts[i], sk)
			}
			if err != io.EOF {
				return
			}
			err = nil
		}
	})
	if err != nil {
		return err
	}
	r.set("msp.decode_s", d.Seconds())
	r.set("msp.decode_ns_per_superkmer", float64(d.Nanoseconds())/float64(nSuperkmers))
	files = nil

	subs := make([]*graph.Subgraph, numPartitions)
	if budget > 0 {
		err = e.replaySpill(r, root, parts, subs, budget, dir)
	} else {
		err = e.replayTable(r, root, parts, subs)
	}
	if err != nil {
		return err
	}
	parts = nil
	if err := e.replayGraph(r, root, in, subs); err != nil {
		return err
	}
	return replayPublish(r, root, dir)
}

// replayTable is in-core Step 2 on one thread: size, allocate, insert every
// k-mer edge, extract, sort — partition by partition with the default
// backend and production sizing.
func (e *env) replayTable(r *recorder, parent int, parts [][]msp.Superkmer, subs []*graph.Subgraph) error {
	const k = kmerLen
	cfg := parahash.DefaultConfig()
	var alloc, insert, extract, sortT time.Duration
	var snap hashtable.Snapshot
	var tableMax int64
	for i, sks := range parts {
		var kmers int64
		for j := range sks {
			kmers += int64(sks[j].NumKmers(k))
		}
		slots, err := hashtable.SizeForKmersChecked(kmers, cfg.Lambda, cfg.Alpha)
		if err != nil {
			return err
		}
		var table hashtable.KmerTable
		for { // Property 1 under-estimates are doubled, as core does
			alloc += r.tr.timed(parent, "hashtable.alloc", func() { table, err = hashtable.NewBackend("", k, slots) })
			if err != nil {
				return err
			}
			ins := table.Inserter(0)
			insert += r.tr.timed(parent, "hashtable.insert", func() {
				for j := range sks {
					msp.ForEachKmerEdge(sks[j], k, func(edge msp.KmerEdge) {
						if err == nil {
							err = ins.InsertEdge(edge)
						}
					})
				}
			})
			m := table.Metrics().Snapshot()
			snap.Inserts, snap.Updates, snap.Probes = snap.Inserts+m.Inserts, snap.Updates+m.Updates, snap.Probes+m.Probes
			if !errors.Is(err, hashtable.ErrTableFull) {
				break
			}
			slots *= 2
		}
		if err != nil {
			return err
		}
		if b := table.MemoryBytes(); b > tableMax {
			tableMax = b
		}
		sub := &graph.Subgraph{K: k, Vertices: make([]graph.Vertex, 0, table.Len())}
		extract += r.tr.timed(parent, "hashtable.extract", func() {
			table.ForEach(func(en hashtable.Entry) {
				sub.Vertices = append(sub.Vertices, graph.Vertex{Kmer: en.Kmer, Counts: en.Counts})
			})
		})
		sortT += r.tr.timed(parent, "graph.sort", func() { sub.SortParallel(e.nproc) })
		subs[i] = sub
	}
	edges := float64(snap.Inserts + snap.Updates)
	r.set("hashtable.alloc_s", alloc.Seconds())
	r.set("hashtable.insert_s", insert.Seconds())
	r.set("hashtable.insert_ns_per_edge", float64(insert.Nanoseconds())/edges)
	r.set("hashtable.inserts", float64(snap.Inserts))
	r.set("hashtable.updates", float64(snap.Updates))
	r.set("hashtable.probes_per_edge", float64(snap.Probes)/edges)
	r.set("hashtable.table_bytes_max", float64(tableMax))
	r.set("hashtable.extract_s", extract.Seconds())
	r.set("graph.sort_s", sortT.Seconds())
	return nil
}

// replaySpill is out-of-core Step 2: the record flatten and sort on their
// own, then device.SpillRuns and device.MergeSpilled against a disk store.
func (e *env) replaySpill(r *recorder, parent int, parts [][]msp.Superkmer, subs []*graph.Subgraph, budget int64, dir string) error {
	const k = kmerLen
	ctx := context.Background()
	spillDir := filepath.Join(dir, "replay-spill")
	defer os.RemoveAll(spillDir)
	ds, err := diskstore.Open(spillDir)
	if err != nil {
		return err
	}
	capRecords := int(budget / (2 * msp.SpillRecordBytes))
	var appendT, sortT, runsT, mergeT time.Duration
	var runs, spilled, passes int64
	var recs, scratch []msp.SpillRecord
	for i, sks := range parts {
		recs = recs[:0]
		appendT += r.tr.timed(parent, "msp.spill_append", func() {
			for j := range sks {
				recs = msp.AppendSpillRecords(recs, sks[j], k)
			}
		})
		if len(scratch) < len(recs) {
			scratch = make([]msp.SpillRecord, len(recs))
		}
		sortT += r.tr.timed(parent, "msp.spill_sort", func() {
			for lo := 0; lo < len(recs); lo += capRecords {
				hi := min(lo+capRecords, len(recs))
				msp.SortSpillRecords(recs[lo:hi], scratch, e.nproc)
			}
		})

		ecfg := device.ExternalConfig{K: k, BufferBytes: budget, SortWorkers: e.nproc, Store: ds, Threads: e.nproc,
			RunName: func(run int) string { return fmt.Sprintf("spill/%04d/run-%04d", i, run) }}
		var spill device.SpillResult
		runsT += r.tr.timed(parent, "device.spill_runs", func() { spill, err = device.SpillRuns(ctx, sks, ecfg) })
		if err != nil {
			return err
		}
		var out device.Step2Output
		var n int64
		mergeT += r.tr.timed(parent, "device.spill_merge", func() { out, n, err = device.MergeSpilled(ctx, spill.RunNames, ecfg) })
		if err != nil {
			return err
		}
		runs += int64(len(spill.RunNames))
		spilled += spill.SpilledBytes
		passes += n
		subs[i] = out.Graph
	}
	r.set("msp.spill_append_s", appendT.Seconds())
	r.set("msp.spill_sort_s", sortT.Seconds())
	r.set("device.spill_runs_s", runsT.Seconds())
	r.set("device.spill_merge_s", mergeT.Seconds())
	r.set("device.spill_runs", float64(runs))
	r.set("device.spill_bytes", float64(spilled))
	r.set("device.merge_passes", float64(passes))
	return nil
}

// replayGraph serialises the subgraphs, merges them the way a build does,
// writes and re-reads the final graph, looks k-mers up in it, and merges the
// same partitions as sorted run files (the streaming alternative to Merge).
func (e *env) replayGraph(r *recorder, parent int, in *input, subs []*graph.Subgraph) error {
	const k = kmerLen
	var err error
	var buf bytes.Buffer
	var write time.Duration
	for _, sub := range subs {
		buf.Reset()
		write += r.tr.timed(parent, "graph.write", func() { err = sub.Write(&buf) })
		if err != nil {
			return err
		}
	}
	r.set("graph.write_s", write.Seconds())

	var merged *graph.Subgraph
	d := r.tr.timed(parent, "graph.merge", func() { merged, err = graph.Merge(k, subs...) })
	if err != nil {
		return err
	}
	r.set("graph.merge_s", d.Seconds())
	r.set("graph.merge_ns_per_vertex", float64(d.Nanoseconds())/float64(merged.NumVertices()))

	buf.Reset()
	d = r.tr.timed(parent, "graph.write_final", func() { err = merged.Write(&buf) })
	if err != nil {
		return err
	}
	r.set("graph.write_final_s", d.Seconds())
	r.set("graph.bytes", float64(buf.Len()))
	problem := ""
	if sum := sha256.Sum256(buf.Bytes()); sum != in.oracleSHA {
		problem = fmt.Sprintf("replayed graph SHA-256 %x differs from the oracle's %x", sum[:6], in.oracleSHA[:6])
	}
	r.op(problem)

	var reread *graph.Subgraph
	d = r.tr.timed(parent, "graph.read", func() { reread, err = graph.ReadSubgraph(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return err
	}
	r.set("graph.read_s", d.Seconds())

	const lookups = 200_000
	rng := rand.New(rand.NewSource(e.seed))
	keys := make([]dna.Kmer, lookups)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = reread.Vertices[rng.Intn(len(reread.Vertices))].Kmer
		} else {
			keys[i], _ = dna.Kmer{Hi: rng.Uint64() >> 10, Lo: rng.Uint64()}.Canonical(k)
		}
	}
	found := 0
	d = r.tr.timed(parent, "graph.lookup", func() {
		for _, key := range keys {
			if _, ok := reread.Lookup(key); ok {
				found++
			}
		}
	})
	if found < lookups/2 {
		return fmt.Errorf("graph.Lookup found %d of %d present k-mers", found, lookups/2)
	}
	r.set("graph.lookup_ns", float64(d.Nanoseconds())/lookups)

	runFiles := make([]bytes.Buffer, len(subs))
	for i, sub := range subs {
		rw, err := graph.NewRunWriter(&runFiles[i], k, int64(len(sub.Vertices)))
		if err != nil {
			return err
		}
		for _, v := range sub.Vertices {
			if err := rw.Add(v); err != nil {
				return err
			}
		}
		if err := rw.Finish(); err != nil {
			return err
		}
	}
	emitted := 0
	d = r.tr.timed(parent, "graph.run_merge", func() {
		readers := make([]*graph.RunReader, len(runFiles))
		for i := range runFiles {
			if readers[i], err = graph.NewRunReader(bytes.NewReader(runFiles[i].Bytes())); err != nil {
				return
			}
		}
		err = graph.MergeRuns(readers, func(graph.Vertex) error { emitted++; return nil })
	})
	if err != nil {
		return err
	}
	if emitted != merged.NumVertices() {
		return fmt.Errorf("graph.MergeRuns emitted %d vertices, graph.Merge %d", emitted, merged.NumVertices())
	}
	r.set("graph.run_merge_s", d.Seconds())
	return nil
}

// replayPublish times the disk store's atomic publication: create, write
// 1 MiB, close (fsync + rename + directory fsync).
func replayPublish(r *recorder, parent int, dir string) error {
	pubDir := filepath.Join(dir, "replay-publish")
	defer os.RemoveAll(pubDir)
	ds, err := diskstore.Open(pubDir)
	if err != nil {
		return err
	}
	block := make([]byte, 1<<20)
	var ms []float64
	for i := 0; i < 50; i++ {
		d := r.tr.timed(parent, "diskstore.publish", func() {
			var w io.WriteCloser
			if w, err = ds.Create(fmt.Sprintf("publish/%04d", i)); err != nil {
				return
			}
			if _, err = w.Write(block); err == nil {
				err = w.Close()
			}
		})
		if err != nil {
			return err
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	sort.Float64s(ms)
	r.set("diskstore.publish_ms_p50", percentile(ms, 0.50))
	r.set("diskstore.publish_ms_p95", percentile(ms, 0.95))
	return nil
}

// traceServe is the in-process half of serve's traced pass: the server layer
// through its Manager, a hooked build of one sparse input with parahashd's
// configuration, and the layer replay on the same input.
func (e *env) traceServe(r *recorder, parent int, dir string, in *input) error {
	opts := server.Options{Root: filepath.Join(dir, "data-inproc"), Base: e.buildConfig("serve", "", "")}
	opts.Base.Checkpoint = parahash.CheckpointConfig{}
	ctx := context.Background()
	var err error
	var m *server.Manager
	d := r.tr.timed(parent, "server.open", func() { m, err = server.Open(opts) })
	if err != nil {
		return err
	}
	r.set("server.open_ms", float64(d.Nanoseconds())/1e6)

	body, err := os.ReadFile(in.path)
	if err != nil {
		return err
	}
	var rec server.JobRecord
	d = r.tr.timed(parent, "server.submit", func() { rec, err = m.Submit(server.JobSpec{}, bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	r.set("server.submit_ack_ms", float64(d.Nanoseconds())/1e6)
	d = r.tr.timed(parent, "server.build", func() {
		for !rec.State.Terminal() {
			time.Sleep(time.Millisecond)
			if rec, err = m.Get(rec.ID); err != nil {
				return
			}
		}
	})
	if err != nil || rec.State != server.StateDone {
		return fmt.Errorf("in-process job ended %s: %s %v", rec.State, rec.Error, err)
	}
	r.set("server.build_s", d.Seconds())

	check := func(m *server.Manager, q query) {
		a, err := m.Query(rec.ID, q.kmer)
		problem := ""
		if err != nil {
			problem = err.Error()
		} else if a.Present != q.present || a.Multiplicity != q.multiplicity || a.Degree != q.degree {
			problem = fmt.Sprintf("in-process query %s answered %+v, oracle says %+v", q.kmer, a, q)
		}
		r.op(problem)
	}
	const warm = 50_000
	d = r.tr.timed(parent, "server.query_warm", func() {
		for i := 0; i < warm; i++ {
			check(m, in.queries[i%len(in.queries)])
		}
	})
	r.set("server.query_warm_ns", float64(d.Nanoseconds())/warm)
	r.set("server.http_overhead_us", r.samples["serve.query_p50_us"][0]-float64(d.Nanoseconds())/warm/1e3)
	stats := m.Stats()
	r.set("server.graphs_cached", float64(stats.GraphsCached))
	r.set("server.graph_evictions", float64(stats.GraphEvictions))
	if err := m.Drain(ctx); err != nil {
		return err
	}
	if m, err = server.Open(opts); err != nil {
		return err
	}
	d = r.tr.timed(parent, "server.query_cold", func() { check(m, in.queries[0]) })
	r.set("server.query_cold_ms", float64(d.Nanoseconds())/1e6)
	if err := m.Drain(ctx); err != nil {
		return err
	}

	if _, err := e.hookedAndUnhooked(r, parent, "serve", in, dir); err != nil {
		return err
	}
	return e.replay(r, parent, in, 11, 0, dir)
}
