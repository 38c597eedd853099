package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parahash/internal/fastq"
	"parahash/internal/faultinject"
	"parahash/internal/graph"
	"parahash/internal/manifest"
	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// The in-core half of the durability rule (spill_durability_test.go has the
// out-of-core half and the shared recorder, observer and resume helpers):
// Step 2 publishes subgraphs volatile and one committer claims them a group at
// a time — one covering Sync and one manifest save per group — and Step 1's
// roster is claimed after one covering Sync. The group is whatever was
// published while the last commit was in flight; nothing configures it.

func isSubgraph(name string) bool { return strings.HasPrefix(name, "subgraphs/") }

// gatedStore sits between a build and its store and delays the two calls the
// group commit is made of. holdFirstSync, when set, is called with the number
// of subgraphs published so far, and the first Sync that names a subgraph
// waits until it returns true; the second publish in turn waits for that Sync
// to begin, so the first group is exactly the first subgraph. lockstep makes
// every subgraph publish wait until a completed Sync has covered all earlier
// ones.
type gatedStore struct {
	store.PartitionStore
	holdFirstSync func(published int) bool
	lockstep      bool

	mu        sync.Mutex
	cond      *sync.Cond
	published int // subgraphs whose Close has returned
	covered   int // subgraphs named by a completed Sync
	held      bool
}

func newGatedStore(inner store.PartitionStore) *gatedStore {
	g := &gatedStore{PartitionStore: inner}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gatedStore) CreateVolatile(name string) (io.WriteCloser, error) {
	if !isSubgraph(name) {
		return g.PartitionStore.CreateVolatile(name)
	}
	g.mu.Lock()
	for g.lockstep && g.covered < g.published || g.holdFirstSync != nil && g.published > 0 && !g.held {
		g.cond.Wait()
	}
	g.mu.Unlock()
	w, err := g.PartitionStore.CreateVolatile(name)
	if err != nil {
		return nil, err
	}
	return &gatedWriter{WriteCloser: w, g: g}, nil
}

type gatedWriter struct {
	io.WriteCloser
	g *gatedStore
}

func (w *gatedWriter) Close() error {
	err := w.WriteCloser.Close()
	if err == nil {
		w.g.mu.Lock()
		w.g.published++
		w.g.mu.Unlock()
		w.g.cond.Broadcast()
	}
	return err
}

func (g *gatedStore) Sync(names ...string) error {
	group := 0
	for _, name := range names {
		if isSubgraph(name) {
			group++
		}
	}
	if group > 0 {
		g.mu.Lock()
		if first := !g.held; first && g.holdFirstSync != nil {
			g.held = true
			g.cond.Broadcast()
			for !g.holdFirstSync(g.published) {
				g.cond.Wait()
			}
		}
		g.mu.Unlock()
	}
	err := g.PartitionStore.Sync(names...)
	if err == nil && group > 0 {
		g.mu.Lock()
		g.covered += group
		g.mu.Unlock()
		g.cond.Broadcast()
	}
	return err
}

// inCoreGraph is the serialized graph of a fault-free in-core build of cfg.
func inCoreGraph(t *testing.T, reads []fastq.Read, cfg Config) []byte {
	t.Helper()
	cfg.Checkpoint = CheckpointConfig{}
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serializeGraph(t, res.Graph)
}

// TestInCoreClaimsOnlySyncedFiles is the ordering and counting test on the
// in-core path. A fault-free build publishes nothing through the durable
// Create, syncs each partition file and each subgraph exactly once — before
// the claim that names it — in one Sync for the roster plus one per commit
// group, and saves the manifest once per group, at most NP times. A kill at
// every step1.published and step2.partition hit keeps the ordering and
// resumes to the identical graph with a clean Scrub and no litter.
func TestInCoreClaimsOnlySyncedFiles(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	np := cfg.NumPartitions
	res, clean, err := watchedBuild(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeGraph(t, res.Graph)
	if res.Stats.Spill.Partitions != 0 {
		t.Fatalf("%d partitions spilled; the config must build in core", res.Stats.Spill.Partitions)
	}
	checkOrdering(t, clean, nil)
	checkNoLitter(t, dir)
	groups := clean.Rec.SubgraphSyncs
	if groups < 1 || groups > np || clean.Step2Saves != groups {
		t.Errorf("%d Step 2 saves for %d commit groups over %d partitions", clean.Step2Saves, groups, np)
	}
	// With the fresh manifest openCheckpoint wrote before the observer
	// existed: 2 + groups saves per build.
	if wantSaves := 1 + groups; clean.Saves != wantSaves {
		t.Errorf("%d manifest saves observed, want the roster's and one per group: %d", clean.Saves, wantSaves)
	}
	if clean.Rec.SyncCalls != 1+groups {
		t.Errorf("%d Sync calls, want the roster's and one per group: %d", clean.Rec.SyncCalls, 1+groups)
	}
	if len(clean.Rec.Synced) != 2*np {
		t.Errorf("%d files synced, want the %d partition files and %d subgraphs", len(clean.Rec.Synced), np, np)
	}
	for name, n := range clean.Rec.Synced {
		if n != 1 {
			t.Errorf("%q synced %d times, want once", name, n)
		}
	}

	kill := func(point string, hit int) {
		t.Helper()
		cfg, dir := ckConfig(t)
		ctx, cancel := killAt(point, hit)
		defer cancel(nil)
		_, w, err := watchedBuild(ctx, reads, cfg)
		if !errors.Is(err, faultinject.ErrPointCanceled) || !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s hit %d: err = %v, want ErrCanceled caused by ErrPointCanceled", point, hit, err)
		}
		checkOrdering(t, w, nil)
		man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if point == "step2.partition" && len(man.Step2) < hit {
			t.Fatalf("%s hit %d fired with %d partitions claimed", point, hit, len(man.Step2))
		}
		resumeAndCheck(t, reads, cfg, dir, want)
	}
	kill("step1.published", 1)
	step := 1
	if testing.Short() {
		step = 5
	}
	for hit := 1; hit <= np; hit += step {
		kill("step2.partition", hit)
	}
}

// TestGroupCommitCoalesces drives the committer by hand over a real
// checkpoint: with the first covering Sync held until every subgraph has been
// published and handed over, NP partitions cost exactly two Step 2 saves — the
// group that was in flight and everything that piled up behind it.
func TestGroupCommitCoalesces(t *testing.T) {
	cfg, _ := ckConfig(t)
	np := cfg.NumPartitions
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.close()
	gate := newGatedStore(st)
	handedOver := false // guarded by gate.mu
	gate.holdFirstSync = func(int) bool { return handedOver }
	w := watchCheckpoint(gate, ck)

	committer := startStep2Committer(context.Background(), cfg, w.Rec, ck)
	empty := &graph.Subgraph{K: cfg.K}
	publish := func(i int) {
		t.Helper()
		size, err := publishSubgraph(w.Rec.CreateVolatile, subgraphFile(i), empty, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := committer.submit(step2Record(i, size, 0, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < np; i++ {
		publish(i)
	}
	gate.mu.Lock()
	handedOver = true
	gate.mu.Unlock()
	gate.cond.Broadcast()
	if err := committer.drain(); err != nil {
		t.Fatal(err)
	}
	if w.Step2Saves != 2 || w.Rec.SubgraphSyncs != 2 {
		t.Errorf("%d Step 2 saves over %d covering syncs for %d partitions, want exactly 2 of each", w.Step2Saves, w.Rec.SubgraphSyncs, np)
	}
	if len(w.Unsynced) > 0 {
		t.Errorf("claims journalled before their files were synced: %v", w.Unsynced)
	}
	if len(w.Completions) != np {
		t.Errorf("the saves claimed %d subgraphs, want all %d", len(w.Completions), np)
	}
}

// TestGroupSizeIsEmergent is the other end: a build whose every subgraph
// publish waits for the covering Sync of the one before commits partition by
// partition — NP groups, NP saves — through the same code, with nothing
// configured.
func TestGroupSizeIsEmergent(t *testing.T) {
	reads := tinyReads(t)
	cfg, _ := ckConfig(t)
	st, ck, err := openCheckpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.close()
	gate := newGatedStore(st)
	gate.lockstep = true
	res, w, err := watchedBuildOver(context.Background(), reads, cfg, gate, ck)
	if err != nil {
		t.Fatal(err)
	}
	checkOrdering(t, w, nil)
	if np := cfg.NumPartitions; w.Step2Saves != np || w.Rec.SubgraphSyncs != np {
		t.Errorf("%d Step 2 saves over %d covering syncs, want %d of each", w.Step2Saves, w.Rec.SubgraphSyncs, np)
	}
	if !bytes.Equal(serializeGraph(t, res.Graph), inCoreGraph(t, reads, cfg)) {
		t.Error("graph differs from the uncheckpointed build's")
	}
}

// TestGroupCommitPowerLoss cuts the power between volatile subgraph publishes
// and the claim that would have named them: the first group's Sync is held
// until three more subgraphs are published behind it, the build is killed as
// that group's claim lands, and every file not synced since its publish is
// dropped or truncated. The resume trusts exactly what the manifest claims and
// rebuilds the rest — with an honest device the claimed subgraphs survive;
// with one that lost the flushes they are damaged too, fail verification and
// are rebuilt with everything else. Either way the graph is the same.
func TestGroupCommitPowerLoss(t *testing.T) {
	reads := tinyReads(t)
	base, _ := ckConfig(t)
	want := inCoreGraph(t, reads, base)
	for _, tc := range []struct {
		name               string
		truncate, loseSync bool
	}{
		{"drop", false, false},
		{"truncate", true, false},
		{"drop/lost-flushes", false, true},
		{"truncate/lost-flushes", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, dir := ckConfig(t)
			var pl *storetest.PowerLoss
			cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
				pl = storetest.NewPowerLoss(st)
				pl.LoseSyncs = tc.loseSync
				gate := newGatedStore(pl)
				gate.holdFirstSync = func(published int) bool { return published >= 4 }
				return gate
			}
			ctx, cancel := killAt("step2.partition", 1)
			defer cancel(nil)
			if _, err := BuildContext(ctx, reads, cfg); !errors.Is(err, faultinject.ErrPointCanceled) {
				t.Fatalf("err = %v, want ErrPointCanceled", err)
			}
			man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			claimed := map[string]bool{}
			for _, rec := range man.Step2 {
				claimed[rec.Name] = true
			}
			if len(claimed) != 1 {
				t.Fatalf("%d subgraphs claimed at the kill, want the first group's one", len(claimed))
			}
			damaged, err := pl.Cut(tc.truncate)
			if err != nil {
				t.Fatal(err)
			}
			orphans, hitClaim := 0, false
			for _, name := range damaged {
				if claimed[name] {
					hitClaim = true
				} else if isSubgraph(name) {
					orphans++
				}
			}
			if orphans < 3 {
				t.Fatalf("power cut damaged %d published-unclaimed subgraphs, want at least 3 (damaged %v)", orphans, damaged)
			}
			if hitClaim != tc.loseSync {
				t.Fatalf("power cut damaged a claimed subgraph: %v, want %v (damaged %v)", hitClaim, tc.loseSync, damaged)
			}
			// A partition is rebuilt iff the resume opens its superkmer file.
			opened := resumeAndCheck(t, reads, cfg, dir, want)
			for i := 0; i < cfg.NumPartitions; i++ {
				trusted := claimed[subgraphFile(i)] && !tc.loseSync
				if rebuilt := opened[superkmerFile(i)]; rebuilt == trusted {
					t.Errorf("partition %d: claimed %v, rebuilt %v", i, claimed[subgraphFile(i)], rebuilt)
				}
			}
		})
	}
}

// TestGroupCommitSyncFaults: a transient fault at a group's covering Sync is
// retried inside the committer and the build is byte-identical; a full disk
// there fails the build typed with the manifest intact — the partition is not
// claimed — and a resume once space is back completes.
func TestGroupCommitSyncFaults(t *testing.T) {
	reads := tinyReads(t)
	base, _ := ckConfig(t)
	want := inCoreGraph(t, reads, base)
	const victim = 5

	t.Run("transient", func(t *testing.T) {
		cfg, dir := ckConfig(t)
		cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
			fs := faultinject.WrapStore(st)
			fs.FailSyncsNTimes(subgraphFile(victim), cfg.Resilience.MaxAttempts-1, faultinject.ErrInjected)
			return fs
		}
		res, err := Build(reads, cfg)
		if err != nil {
			t.Fatalf("transient sync fault not retried: %v", err)
		}
		if !bytes.Equal(serializeGraph(t, res.Graph), want) {
			t.Fatal("graph differs after a retried covering sync")
		}
		if rep, err := Scrub(dir); err != nil || !rep.Clean() || rep.Step2Verified != cfg.NumPartitions {
			t.Fatalf("scrub: %+v, %v", rep, err)
		}
	})

	t.Run("disk-full", func(t *testing.T) {
		cfg, dir := ckConfig(t)
		cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
			fs := faultinject.WrapStore(st)
			fs.FailSyncsNTimes(subgraphFile(victim), -1, fmt.Errorf("%w: flushing", store.ErrDiskFull))
			return fs
		}
		if _, err := Build(reads, cfg); !errors.Is(err, store.ErrDiskFull) {
			t.Fatalf("full disk at the group sync: err = %v, want store.ErrDiskFull", err)
		}
		man, err := manifest.Load(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !man.Step1Done || man.Step2For(victim) != nil || len(man.Step2) >= cfg.NumPartitions {
			t.Fatalf("manifest after the failed sync: step1_done=%v, %d claims, victim claimed=%v",
				man.Step1Done, len(man.Step2), man.Step2For(victim) != nil)
		}
		resumeAndCheck(t, reads, cfg, dir, want)
	})
}
