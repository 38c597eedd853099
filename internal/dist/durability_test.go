package dist

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parahash/internal/core"
	"parahash/internal/diskstore"
	"parahash/internal/manifest"
	"parahash/internal/store"
	"parahash/internal/store/storetest"
)

// The -workers half of the durability rule: workers publish everything
// volatile and never flush, the coordinator promotes into the group commit,
// and a lease costs a save only at its grant — the one save the fencing
// tokens need. So a fault-free build's Run saves the manifest once per
// grant, once per commit group and once at the end, and every claim in
// every save names a file a covering Sync flushed first.

// watchedFleet is one LocalTransport build's recording: the coordinator's
// store and saves, and every worker's store.
type watchedFleet struct {
	cfg     core.Config // the coordinator's
	coord   *storetest.Recorder
	watch   *storetest.JournalWatch
	mu      sync.Mutex
	workers []*storetest.Recorder
}

// watchFleet puts recorders under the coordinator and every worker of a
// build in dir.
func watchFleet(base core.Config, dir string) *watchedFleet {
	f := &watchedFleet{coord: storetest.NewRecorder(nil)}
	f.watch = storetest.NewJournalWatch(f.coord)
	f.cfg = distConfig(base, dir)
	f.cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		f.coord.PartitionStore = st
		return f.coord
	}
	return f
}

// transport starts in-process workers over recording stores.
func (f *watchedFleet) transport() *LocalTransport {
	wcfg := f.cfg
	wcfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		r := storetest.NewRecorder(st)
		f.mu.Lock()
		f.workers = append(f.workers, r)
		f.mu.Unlock()
		return r
	}
	return &LocalTransport{Cfg: wcfg}
}

// TestDistClaimsOnlySyncedFiles counts what a fault-free -workers build pays
// for durability: no worker syncs or durably creates anything; Run saves the
// manifest exactly once per lease grant, once per commit group and once at
// the end — no save per heartbeat, lease drop or promotion; each canonical
// subgraph is synced exactly once, before the save that claims it.
func TestDistClaimsOnlySyncedFiles(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	f := watchFleet(base, t.TempDir())
	ctx := context.Background()
	plan, err := core.PrepareDistBuild(ctx, reads, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan.ObserveSaves(f.watch.Observe)
	// Workers heartbeat before every partition; no renewal is saved.
	stats, err := Run(ctx, plan, f.transport(), Options{Workers: 2, LeaseMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Finish(stats)
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, res, oracle)

	for _, w := range f.workers {
		if len(w.Synced) != 0 || len(w.Durable) != 0 {
			t.Errorf("a worker synced %v and published %v durably, want nothing of either", w.Synced, w.Durable)
		}
		for name := range w.Volatile {
			if !strings.Contains(name, ".t") {
				t.Errorf("a worker published %q, not a fenced name", name)
			}
		}
	}
	if len(f.watch.Unsynced) > 0 {
		t.Errorf("claims saved before their files were synced: %v", f.watch.Unsynced)
	}
	groups, np := f.coord.SubgraphSyncs, base.NumPartitions
	if groups < 1 || groups > np || f.watch.Step2Saves != groups {
		t.Errorf("%d claiming saves for %d covering syncs over %d partitions", f.watch.Step2Saves, groups, np)
	}
	if want := int(stats.LeaseGrants) + groups + 1; f.watch.Saves != want {
		t.Errorf("Run saved the manifest %d times, want %d grants + %d groups + 1 = %d", f.watch.Saves, stats.LeaseGrants, groups, want)
	}
	for i := 0; i < np; i++ {
		name := fmt.Sprintf("subgraphs/%04d", i)
		if n := f.coord.Synced[name]; n != 1 {
			t.Errorf("%s synced %d times, want once", name, n)
		}
	}
	t.Logf("%d partitions: %d grants, %d commit groups, %d saves", np, stats.LeaseGrants, groups, f.watch.Saves)
}

// TestDistResumesAfterPowerLoss cuts the power at every covering Sync and
// before every manifest save of a -workers build: each cut copies the
// checkpoint as it stands and, through storetest.PowerLoss, drops or
// truncates every file in the copy that no Sync has covered yet — the
// workers' volatile fenced files and the coordinator's promoted but
// unclaimed canonical subgraphs alike. A fault-free distributed resume of
// every copy must finish byte-identical to the oracle with a clean
// checkpoint.
func TestDistResumesAfterPowerLoss(t *testing.T) {
	reads, base := testData(t)
	oracle := oracleBytes(t, reads, base)
	dir := t.TempDir()
	f := watchFleet(base, dir)

	var mu sync.Mutex
	var cuts []string
	promotedLost := 0 // cuts that took a promoted, unclaimed canonical file
	cut := func() {
		mu.Lock()
		defer mu.Unlock()
		snap := filepath.Join(t.TempDir(), "ck")
		if err := copyCheckpoint(dir, snap); err != nil {
			t.Error(err)
			return
		}
		ds, err := diskstore.Open(filepath.Join(snap, "data"))
		if err != nil {
			t.Error(err)
			return
		}
		names, err := ds.List()
		if err != nil {
			t.Error(err)
			return
		}
		pl := storetest.NewPowerLoss(ds)
		for _, name := range names {
			if f.coord.TimesSynced(name) == 0 {
				pl.Risk(name)
			}
		}
		damaged, err := pl.Cut(len(cuts)%2 == 1)
		if err != nil {
			t.Error(err)
			return
		}
		for _, name := range damaged {
			if strings.HasPrefix(name, "subgraphs/") && !strings.Contains(name, ".t") {
				promotedLost++
				break
			}
		}
		cuts = append(cuts, snap)
	}
	f.cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		f.coord.PartitionStore = st
		return &cutBeforeSync{PartitionStore: f.coord, cut: cut}
	}
	ctx := context.Background()
	plan, err := core.PrepareDistBuild(ctx, reads, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan.ObserveSaves(func(*manifest.Manifest) { cut() })
	stats, err := Run(ctx, plan, f.transport(), Options{Workers: 2, LeaseMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Finish(stats); err != nil {
		t.Fatal(err)
	}
	if len(cuts) < base.NumPartitions/2 || promotedLost == 0 {
		t.Fatalf("%d power cuts, %d of them with a promoted subgraph not yet synced; the build must sync and save more often", len(cuts), promotedLost)
	}
	t.Logf("%d power cuts, %d with a promoted subgraph not yet synced", len(cuts), promotedLost)

	step := 1
	if testing.Short() {
		step = 5
	}
	for i := 0; i < len(cuts); i += step {
		snap := cuts[i]
		cfg := distConfig(base, snap)
		cfg.Checkpoint.Resume = true
		_, res, _, err := runDist(t, reads, cfg, &LocalTransport{Cfg: cfg}, Options{Workers: 2, LeaseMS: 5000})
		if err != nil {
			t.Fatalf("resume after power cut %d: %v", i, err)
		}
		checkConverged(t, res, oracle)
		checkStoreClean(t, snap)
	}
}

// cutBeforeSync cuts the power as each Sync begins.
type cutBeforeSync struct {
	store.PartitionStore
	cut func()
}

func (c *cutBeforeSync) Sync(names ...string) error {
	c.cut()
	return c.PartitionStore.Sync(names...)
}

// copyCheckpoint copies a live checkpoint directory file by file. In-flight
// ".tmp" files are left out: nothing ever reads one, and only Scrub sweeps
// them.
func copyCheckpoint(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // published or removed while the walk ran
			}
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if strings.HasSuffix(p, ".tmp") {
			return nil
		}
		in, err := os.Open(p)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
