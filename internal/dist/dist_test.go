package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"parahash/internal/core"
	"parahash/internal/device"
	"parahash/internal/diskstore"
	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/simulate"
)

// testData generates the tiny deterministic dataset and the base build
// configuration the dist tests share: 16 partitions so every lease schedule
// has work to fight over, a small heterogeneous fleet, subgraphs kept so
// runs can be compared byte-for-byte against the oracle.
func testData(t *testing.T) ([]fastq.Read, core.Config) {
	t.Helper()
	d, err := simulate.Generate(simulate.TinyProfile())
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.NumPartitions = 16
	cfg.CPUThreads = 4
	cfg.NumGPUs = 1
	cfg.KeepSubgraphs = true
	return d.Reads, cfg
}

func serialize(t *testing.T, g *graph.Subgraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("serializing graph: %v", err)
	}
	return buf.Bytes()
}

// oracleBytes is the single-process, checkpoint-free build every
// distributed run must converge to byte-for-byte.
func oracleBytes(t *testing.T, reads []fastq.Read, cfg core.Config) []byte {
	t.Helper()
	cfg.Checkpoint = core.CheckpointConfig{}
	res, err := core.Build(reads, cfg)
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	return serialize(t, res.Graph)
}

func distConfig(cfg core.Config, dir string) core.Config {
	cfg.Checkpoint = core.CheckpointConfig{Dir: dir, InputLabel: "dist-test"}
	return cfg
}

// runDist prepares and runs a distributed build. Run errors are returned
// (some tests expect them); everything else is fatal.
func runDist(t *testing.T, reads []fastq.Read, cfg core.Config, tr Transport, opts Options) (*core.DistPlan, *core.Result, core.DistStats, error) {
	t.Helper()
	ctx := context.Background()
	plan, err := core.PrepareDistBuild(ctx, reads, cfg)
	if err != nil {
		t.Fatalf("preparing distributed build: %v", err)
	}
	stats, err := Run(ctx, plan, tr, opts)
	if err != nil {
		return plan, nil, stats, err
	}
	res, err := plan.Finish(stats)
	if err != nil {
		t.Fatalf("finishing distributed build: %v", err)
	}
	return plan, res, stats, nil
}

func checkConverged(t *testing.T, res *core.Result, oracle []byte) {
	t.Helper()
	if got := serialize(t, res.Graph); !bytes.Equal(got, oracle) {
		t.Fatalf("distributed graph differs from single-process oracle (%d vs %d bytes)", len(got), len(oracle))
	}
}

// checkStoreClean asserts the checkpoint holds exactly the canonical
// artifacts: scrub-clean, no leases outstanding, no fenced orphans.
func checkStoreClean(t *testing.T, dir string) {
	t.Helper()
	rep, err := core.Scrub(dir)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("checkpoint not scrub-clean after distributed build: %+v", rep)
	}
	ds, err := diskstore.Open(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	names, err := ds.List()
	if err != nil {
		t.Fatalf("listing store: %v", err)
	}
	for _, n := range names {
		if strings.Contains(n, ".t") {
			t.Fatalf("fenced orphan %q survived the end-of-run sweep", n)
		}
	}
}

// protocolSamples holds one message of every type.
var protocolSamples = []Message{
	{Type: TypeHello, Worker: "w0"},
	{Type: TypeAssign, Token: 3, Partitions: []int{4, 5, 6}, LeaseMS: 2000},
	{Type: TypeHeartbeat, Worker: "w0", Token: 3},
	{Type: TypeDone, Worker: "w0", Token: 3, Partition: 4, Work: &core.PartitionWork{
		Kmers: 40, Distinct: 7, TableBytes: 512,
		Hash:         core.HashStats{Inserts: 7, Updates: 33, Probes: 44},
		DecodedBytes: 96,
	}},
	{Type: TypeDone, Worker: "w1", Token: 4, Partition: 6, Work: &core.PartitionWork{
		Kmers: 30, Distinct: 5, SpillBufferBytes: 2048, AutoRouted: true,
		Spill:        device.SpillCounts{Runs: 3, SpilledBytes: 144, MergePasses: 1},
		Hash:         core.HashStats{Inserts: 5, Updates: 25, Probes: 31, LockWaits: 2, CASFailures: 1},
		DecodedBytes: 210,
	}},
	{Type: TypeError, Worker: "w0", Token: 3, Partition: 5, Error: "device lost"},
	{Type: TypeShutdown},
}

func TestProtocolRoundTrip(t *testing.T) {
	msgs := protocolSamples
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("writing %s: %v", m.Type, err)
		}
	}
	out := make(chan Message, len(msgs))
	if err := ReadMessages(&buf, out); err != nil {
		t.Fatalf("reading messages: %v", err)
	}
	var got []Message
	for m := range out {
		got = append(got, m)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, msgs)
	}
}

// retiredDoneFrame is a done message as workers sent it before a done
// carried one work field: its sizes and counters as loose keys.
const retiredDoneFrame = `{"type":"done","worker":"w0","token":3,"partition":4,"name":"subgraphs/0004.t3",` +
	`"bytes":128,"vertices":7,"edges":9,"distinct":7,"kmers":40,"counters":{"hash":{"inserts":7},` +
	`"decoded_bytes":96,"spilled":true,"spill":{"spill_runs":2}}}` + "\n"

// TestProtocolIgnoresRetiredDoneFields: an old worker's done frame still
// decodes — the retired keys are ignored — and carries no work.
func TestProtocolIgnoresRetiredDoneFields(t *testing.T) {
	out := make(chan Message, 1)
	if err := ReadMessages(strings.NewReader(retiredDoneFrame), out); err != nil {
		t.Fatal(err)
	}
	want := Message{Type: TypeDone, Worker: "w0", Token: 3, Partition: 4}
	if got := <-out; !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

func TestReadMessagesMalformedLine(t *testing.T) {
	out := make(chan Message, 4)
	err := ReadMessages(strings.NewReader("{\"type\":\"hello\"}\ngarbage\n"), out)
	if !errors.Is(err, ErrMalformedMessage) {
		t.Fatalf("malformed line: err = %v, want ErrMalformedMessage", err)
	}
	if m, ok := <-out; !ok || m.Type != TypeHello {
		t.Fatalf("valid prefix not delivered: %+v ok=%v", m, ok)
	}
	if _, ok := <-out; ok {
		t.Fatal("channel not closed after decode error")
	}
}

// TestMalformedMessageQuotesAPrefix: the error for a garbled line of up to
// the scanner's 1 MiB quotes only its first bytes.
func TestMalformedMessageQuotesAPrefix(t *testing.T) {
	line := strings.Repeat("x", 1<<19) + "\n"
	err := ReadMessages(strings.NewReader(line), make(chan Message, 1))
	if !errors.Is(err, ErrMalformedMessage) {
		t.Fatalf("err = %v, want ErrMalformedMessage", err)
	}
	if n := len(err.Error()); n > 4*maxQuotedBytes+100 {
		t.Fatalf("the error for one garbled line is %d bytes long", n)
	}
}

// FuzzReadMessages: whatever bytes arrive on a worker pipe, ReadMessages
// either yields messages that survive a WriteMessage round trip unchanged,
// or stops with ErrMalformedMessage or bufio.ErrTooLong — and never panics.
func FuzzReadMessages(f *testing.F) {
	var frames bytes.Buffer
	for _, m := range protocolSamples {
		if err := WriteMessage(&frames, m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(frames.Bytes())
	f.Add([]byte("{\"type\":\"hello\"}\ngarbage\n"))
	f.Add([]byte("\n\n{}\r\n{\"type\":\"assign\",\"partitions\":[]}"))
	f.Add([]byte(`{"type":"done","token":-1,"partition":1e3}`))
	f.Add([]byte(`{"type":"done","token":2,"partition":1,"work":{"kmers":9,"hash":{"inserts":3,"updates":-1,` +
		`"contention_reduction":9},"decoded_bytes":7,"spill_buffer_bytes":64,"spill":{"spill_runs":2}}}` + "\n" +
		`{"type":"done","work":null}`))
	f.Add([]byte(retiredDoneFrame))
	f.Fuzz(func(t *testing.T, data []byte) {
		out := make(chan Message, bytes.Count(data, []byte("\n"))+1)
		err := ReadMessages(bytes.NewReader(data), out)
		if err != nil && !errors.Is(err, ErrMalformedMessage) && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("untyped error: %v", err)
		}
		for m := range out {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, m); err != nil {
				t.Fatalf("re-encoding %+v: %v", m, err)
			}
			back := make(chan Message, 1)
			if err := ReadMessages(&buf, back); err != nil {
				t.Fatalf("decoding the re-encoded %+v: %v", m, err)
			}
			got := <-back
			if len(m.Partitions) == 0 {
				m.Partitions = nil // an empty list is omitted on the wire
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", got, m)
			}
		}
	})
}

func TestRunRequiresWorkers(t *testing.T) {
	if _, err := Run(context.Background(), nil, &LocalTransport{}, Options{}); err == nil {
		t.Fatal("Run accepted a zero-worker fleet")
	}
}

func TestDistBuildFaultFree(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	dir := t.TempDir()
	cfg := distConfig(base, dir)
	tr := &LocalTransport{Cfg: cfg}
	plan, res, stats, err := runDist(t, reads, cfg, tr, Options{Workers: 2, LeaseMS: 5000})
	if err != nil {
		t.Fatalf("fault-free distributed build failed: %v", err)
	}
	checkConverged(t, res, oracle)
	if stats.Workers != 2 || stats.Spawned != 2 {
		t.Fatalf("fleet accounting: %+v", stats)
	}
	if stats.LeaseGrants == 0 {
		t.Fatal("no leases granted")
	}
	if stats.LeaseExpiries != 0 || stats.Reassignments != 0 ||
		stats.FencedWrites != 0 || stats.WorkerQuarantines != 0 {
		t.Fatalf("fault counters nonzero on a fault-free fleet: %+v", stats)
	}
	if n := len(plan.Manifest().Leases); n != 0 {
		t.Fatalf("%d leases left in the manifest after a completed build", n)
	}
	if res.Stats.Dist == nil || res.Stats.Dist.LeaseGrants != stats.LeaseGrants {
		t.Fatalf("dist stats not folded into the result: %+v", res.Stats.Dist)
	}
	m := core.MetricsOf(res, cfg)
	if m.Dist == nil || m.Dist.LeaseGrants != stats.LeaseGrants {
		t.Fatalf("dist counters missing from build metrics: %+v", m.Dist)
	}
	checkStoreClean(t, dir)
}

// TestDistBuildCountsWorkerWork: a -workers build reports what a
// single-process build of the same partitions reports — the whole
// parahash.metrics/v1 document: Step 2's schedule and the peak-memory
// estimate, charged on the modelled processors, and the hash table, spill and
// decoded-bytes counters its workers carried on their done messages — but for
// its dist object and Step 2's measured partitions (the coordinator's own
// processors construct nothing). In-core, with every partition spilled, and
// on a resume that rebuilds one lost subgraph.
func TestDistBuildCountsWorkerWork(t *testing.T) {
	reads, base := testData(t)
	base.CPUThreads, base.NumGPUs = 1, 0 // one thread: counts that do not vary run to run
	document := func(res *core.Result, cfg core.Config) string {
		m := core.MetricsOf(res, cfg)
		m.Dist = nil
		for i := range m.Steps[1].Processors {
			m.Steps[1].Processors[i].MeasuredPartitions = 0
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// compare builds cfg with two workers and holds its document to single's.
	compare := func(name string, single *core.Result, cfg core.Config) *core.Result {
		t.Helper()
		_, res, _, err := runDist(t, reads, cfg, &LocalTransport{Cfg: cfg}, Options{Workers: 2, LeaseMS: 5000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := document(res, cfg), document(single, base); got != want {
			t.Errorf("%s: the -workers document differs from the single-process one:\n got %s\nwant %s", name, got, want)
		}
		return res
	}
	for _, budget := range []int64{0, 2048} {
		base.PartitionMemoryBudgetBytes = budget
		single, err := core.Build(reads, base)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("budget %d", budget)
		s := compare(name, single, distConfig(base, t.TempDir())).Stats
		if (budget == 0) != (s.Hash.Inserts > 0) || (budget > 0) != (s.Spill.Partitions == base.NumPartitions) ||
			s.Step2.Seconds == 0 || s.PeakMemoryBytes == 0 {
			t.Errorf("%s: nothing counted: hash_table %+v, spill %+v, step 2 %.4fs, peak %d bytes",
				name, s.Hash, s.Spill, s.Step2.Seconds, s.PeakMemoryBytes)
		}

		// Two finished checkpoints lose one subgraph each; one is resumed
		// single-process, the other with two workers.
		resume := [2]core.Config{}
		for j := range resume {
			cfg := distConfig(base, t.TempDir())
			if _, err := core.Build(reads, cfg); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(cfg.Checkpoint.Dir, "data", "subgraphs", "0005")); err != nil {
				t.Fatal(err)
			}
			cfg.Checkpoint.Resume = true
			resume[j] = cfg
		}
		if single, err = core.Build(reads, resume[0]); err != nil {
			t.Fatal(err)
		}
		s = compare(name+", resumed", single, resume[1]).Stats
		if s.ResumedPartitions != base.NumPartitions-1 || s.RebuiltPartitions != 1 || s.Step2.Partitions != 1 {
			t.Errorf("%s, resumed: %d partitions resumed, %d rebuilt, %d built, want %d, 1, 1",
				name, s.ResumedPartitions, s.RebuiltPartitions, s.Step2.Partitions, base.NumPartitions-1)
		}
	}
}

// TestDistFinishStreamsWhatItDoesNotKeep: a -workers 2 build finishes the
// way a single-process one does — its totals come from the journalled
// records, WriteGraph streams the promoted subgraph files, and with
// KeepSubgraphs Result.Graph is that stream decoded, without it nothing is
// re-read at Finish — and all of it is the naive graph, filtered. This is
// the -workers shape of internal/core's TestWriteGraphIdenticalWhetherGraphIsKept.
func TestDistFinishStreamsWhatItDoesNotKeep(t *testing.T) {
	reads, base := testData(t)
	for _, filter := range []int{0, 2} {
		base.OutputFilterMin = filter
		naive := graph.BuildNaive(reads, base.K)
		distinct := int64(naive.NumVertices())
		if filter > 1 {
			naive.FilterByMultiplicity(filter)
		}
		want := serialize(t, naive)
		for _, keep := range []bool{true, false} {
			cfg := distConfig(base, t.TempDir())
			cfg.KeepSubgraphs = keep
			_, res, _, err := runDist(t, reads, cfg, &LocalTransport{Cfg: cfg}, Options{Workers: 2, LeaseMS: 5000})
			if err != nil {
				t.Fatalf("filter %d, keep=%v: %v", filter, keep, err)
			}
			if (res.Graph != nil) != keep {
				t.Fatalf("filter %d, keep=%v: result graph = %v", filter, keep, res.Graph)
			}
			if keep && !bytes.Equal(serialize(t, res.Graph), want) {
				t.Fatalf("filter %d: Result.Graph differs from the naive graph, filtered", filter)
			}
			var buf bytes.Buffer
			vertices, edges, err := res.WriteGraph(&buf)
			if err != nil {
				t.Fatalf("filter %d, keep=%v: WriteGraph: %v", filter, keep, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("filter %d, keep=%v: WriteGraph differs from the naive graph, filtered", filter, keep)
			}
			s := res.Stats
			if vertices != s.GraphVertices || edges != s.GraphEdges ||
				s.GraphVertices != int64(naive.NumVertices()) || s.GraphEdges != int64(naive.NumEdges()) || s.DistinctVertices != distinct {
				t.Fatalf("filter %d, keep=%v: wrote %d vertices, %d edges; Stats says %d, %d, %d distinct; the naive graph has %d, %d, %d",
					filter, keep, vertices, edges, s.GraphVertices, s.GraphEdges, s.DistinctVertices, naive.NumVertices(), naive.NumEdges(), distinct)
			}
		}
	}
}

// TestDistBuildSurvivesWorkerFaults drives the three process failure modes
// at once — one worker SIGKILL'd with a result published but unreported,
// one wedged mid-lease after its last heartbeat, one partitioned from the
// coordinator but still working — and requires byte-identical convergence
// with the single-process oracle plus a clean store afterwards.
func TestDistBuildSurvivesWorkerFaults(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	dir := t.TempDir()
	cfg := distConfig(base, dir)
	tr := &LocalTransport{Cfg: cfg, Faults: map[string]Fault{
		"w1": {KillAfter: 1},
		"w2": {Hang: true, HangAfter: 1},
		"w3": {Isolate: true},
	}}
	plan, res, stats, err := runDist(t, reads, cfg, tr, Options{Workers: 4, LeaseMS: 800})
	if err != nil {
		t.Fatalf("faulted distributed build failed: %v", err)
	}
	checkConverged(t, res, oracle)
	// The hung and the isolated worker can only be reclaimed by expiry; the
	// killed one loses its unreported partition to a survivor.
	if stats.LeaseExpiries < 2 {
		t.Fatalf("expected >= 2 lease expiries (hung + isolated), got %d", stats.LeaseExpiries)
	}
	if stats.Reassignments < 1 {
		t.Fatalf("expected reassignments after worker faults, got %d", stats.Reassignments)
	}
	if stats.Spawned != 4 {
		t.Fatalf("expected 4 spawned workers, got %d", stats.Spawned)
	}
	if n := len(plan.Manifest().Leases); n != 0 {
		t.Fatalf("%d leases left in the manifest after a completed build", n)
	}
	checkStoreClean(t, dir)
}

// zombieConn scripts the classic fencing hazard end to end: a worker that
// takes a lease, goes silent past its expiry, and then — only after the
// coordinator has revoked the lease and written it off — constructs its
// leased partition, publishes it under the stale token and reports done.
type zombieConn struct {
	cfg  core.Config
	out  chan Message
	once sync.Once
	done chan struct{}

	mu     sync.Mutex
	assign *Message
}

func newZombieConn(cfg core.Config) *zombieConn {
	c := &zombieConn{cfg: cfg, out: make(chan Message, 4), done: make(chan struct{})}
	c.out <- Message{Type: TypeHello, Worker: "zombie"}
	return c
}

func (c *zombieConn) Send(m Message) error {
	if m.Type == TypeAssign {
		c.mu.Lock()
		if c.assign == nil {
			mm := m
			c.assign = &mm
		}
		c.mu.Unlock()
	}
	return nil
}

func (c *zombieConn) Recv() <-chan Message { return c.out }

// Kill is where the zombie does its damage: it is already presumed dead,
// but the process behind it keeps running and publishes anyway.
func (c *zombieConn) Kill() {
	c.once.Do(func() {
		go func() {
			defer close(c.done)
			defer close(c.out)
			c.mu.Lock()
			a := c.assign
			c.mu.Unlock()
			if a == nil {
				return
			}
			p := a.Partitions[0]
			w, err := core.NewDistWorker(c.cfg)
			if err != nil {
				return
			}
			work, err := w.Construct(context.Background(), p, core.FencedName(p, a.Token))
			if err != nil {
				return
			}
			c.out <- Message{Type: TypeDone, Worker: "zombie", Token: a.Token, Partition: p, Work: &work}
		}()
	})
}

func (c *zombieConn) Wait() error {
	<-c.done
	return nil
}

// zombieTransport hands worker w0 the scripted zombie and everything else
// to the in-process transport.
type zombieTransport struct {
	local  *LocalTransport
	zombie *zombieConn
}

func (t *zombieTransport) Start(ctx context.Context, id string) (Conn, error) {
	if id == "w0" {
		return t.zombie, nil
	}
	return t.local.Start(ctx, id)
}

// TestZombieWriteIsFencedOff proves the fencing invariant: when a revoked
// worker publishes late under its old token, the write is rejected (counted
// as a fenced write, file discarded), exactly one fencing token wins the
// partition, and the build still converges byte-identically. The healthy
// worker's deliveries are delayed so it is still mid-build when the
// zombie's stale done arrives — the ordering is deterministic, not a race.
func TestZombieWriteIsFencedOff(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	dir := t.TempDir()
	cfg := distConfig(base, dir)
	tr := &zombieTransport{
		local:  &LocalTransport{Cfg: cfg, Faults: map[string]Fault{"w1": {DelayMS: 60}}},
		zombie: newZombieConn(cfg),
	}
	plan, res, stats, err := runDist(t, reads, cfg, tr, Options{Workers: 2, LeaseMS: 500})
	if err != nil {
		t.Fatalf("distributed build with zombie failed: %v", err)
	}
	checkConverged(t, res, oracle)
	if stats.FencedWrites != 1 {
		t.Fatalf("expected exactly 1 fenced write from the zombie, got %d", stats.FencedWrites)
	}
	if stats.LeaseExpiries < 1 {
		t.Fatalf("zombie's lease never expired: %+v", stats)
	}
	if stats.Reassignments < 1 {
		t.Fatalf("zombie's partitions were never reassigned: %+v", stats)
	}
	// The fenced result's work is not counted: every vertex is inserted by
	// exactly one promoted table.
	if h := res.Stats.Hash; h.Inserts != res.Stats.DistinctVertices {
		t.Fatalf("hash inserts %d, want one per distinct vertex (%d)", h.Inserts, res.Stats.DistinctVertices)
	}
	// Exactly one fencing token won: token high-water strictly exceeds the
	// zombie's (reassignment minted a newer one), and no leases survive.
	man := plan.Manifest()
	if man.LeaseToken < 2 {
		t.Fatalf("reassignment did not mint a newer fencing token: high-water %d", man.LeaseToken)
	}
	if n := len(man.Leases); n != 0 {
		t.Fatalf("%d leases left in the manifest", n)
	}
	checkStoreClean(t, dir)
}

// worklessConn is a worker whose done messages arrive without their work,
// as an old worker's would.
type worklessConn struct {
	Conn
	out chan Message
}

func (c *worklessConn) Recv() <-chan Message { return c.out }

// worklessTransport starts worker w0 as a worklessConn over LocalTransport.
type worklessTransport struct{ local *LocalTransport }

func (t *worklessTransport) Start(ctx context.Context, id string) (Conn, error) {
	conn, err := t.local.Start(ctx, id)
	if err != nil || id != "w0" {
		return conn, err
	}
	c := &worklessConn{Conn: conn, out: make(chan Message)}
	go func() {
		defer close(c.out)
		for m := range conn.Recv() {
			m.Work = nil
			c.out <- m
		}
	}()
	return c, nil
}

// TestDoneWithoutWorkIsRefused: a done message that carries no work is a
// protocol violation — the worker is struck and its partitions go to a
// survivor, so nothing is promoted that the run's stats cannot count.
func TestDoneWithoutWorkIsRefused(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	cfg := distConfig(base, t.TempDir())
	tr := &worklessTransport{local: &LocalTransport{Cfg: cfg}}
	_, res, stats, err := runDist(t, reads, cfg, tr, Options{Workers: 2, LeaseMS: 5000})
	if err != nil {
		t.Fatalf("distributed build with a workless worker failed: %v", err)
	}
	checkConverged(t, res, oracle)
	if stats.Reassignments < 1 {
		t.Fatalf("the workless worker's partitions were never reassigned: %+v", stats)
	}
	if h := res.Stats.Hash; h.Inserts != res.Stats.DistinctVertices {
		t.Fatalf("hash inserts %d, want one per distinct vertex (%d)", h.Inserts, res.Stats.DistinctVertices)
	}
}

// TestDistBuildOutOfCore runs the distributed build with a per-partition
// memory budget far below every partition's predicted table, so each worker
// takes the sort-merge spill path under fenced run names. The result must
// converge byte-identically to the unconstrained single-process oracle, and
// the store must end with no spill runs — workers sweep their own namespace
// and the coordinator's end-of-run sweep catches casualties.
func TestDistBuildOutOfCore(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	dir := t.TempDir()
	cfg := distConfig(base, dir)
	cfg.PartitionMemoryBudgetBytes = 2048
	// One worker dies mid-fleet: its fenced spill runs become orphans the
	// coordinator must sweep along with fenced subgraphs.
	tr := &LocalTransport{Cfg: cfg, Faults: map[string]Fault{
		"w1": {KillAfter: 1},
	}}
	_, res, stats, err := runDist(t, reads, cfg, tr, Options{Workers: 4, LeaseMS: 800})
	if err != nil {
		t.Fatalf("out-of-core distributed build failed: %v", err)
	}
	checkConverged(t, res, oracle)
	if stats.Spawned != 4 {
		t.Fatalf("expected 4 spawned workers, got %d", stats.Spawned)
	}
	checkStoreClean(t, dir)
	ds, err := diskstore.Open(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := ds.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "spill/") {
			t.Fatalf("spill run %q survived the distributed build", n)
		}
	}
}

// TestWorkersExhaustedThenResume wedges the only worker, expects the typed
// fleet-death error, and then finishes the same checkpoint with an ordinary
// single-process resume — the distributed build's failure mode leaves a
// durable, resumable store behind.
func TestWorkersExhaustedThenResume(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	dir := t.TempDir()
	cfg := distConfig(base, dir)
	tr := &LocalTransport{Cfg: cfg, Faults: map[string]Fault{
		"w0": {Hang: true, HangAfter: 1},
	}}
	_, _, stats, err := runDist(t, reads, cfg, tr, Options{Workers: 1, LeaseMS: 400})
	if !errors.Is(err, ErrWorkersExhausted) {
		t.Fatalf("expected ErrWorkersExhausted, got %v", err)
	}
	if stats.LeaseExpiries < 1 {
		t.Fatalf("hung worker's lease never expired: %+v", stats)
	}

	resumeCfg := cfg
	resumeCfg.Checkpoint.Resume = true
	res, err := core.BuildContext(context.Background(), reads, resumeCfg)
	if err != nil {
		t.Fatalf("single-process resume after fleet death failed: %v", err)
	}
	checkConverged(t, res, oracle)
	if res.Stats.ResumedPartitions == 0 {
		t.Fatal("resume rebuilt everything; the partition journalled before the hang should have survived")
	}
	checkStoreClean(t, dir)
}
