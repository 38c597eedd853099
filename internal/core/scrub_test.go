package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"parahash/internal/faultinject"
	"parahash/internal/manifest"
	"parahash/internal/store"
)

func TestScrubCleanCheckpoint(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	buildCheckpointed(t, reads, cfg)

	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("pristine checkpoint not clean: %+v", rep)
	}
	if !rep.ManifestPresent || !rep.Step1Done {
		t.Fatalf("manifest state misreported: %+v", rep)
	}
	if rep.Step1Verified != cfg.NumPartitions || rep.Step2Verified != cfg.NumPartitions {
		t.Fatalf("verified %d/%d claims, want %d/%d",
			rep.Step1Verified, rep.Step2Verified, cfg.NumPartitions, cfg.NumPartitions)
	}
	if rep.ManifestRepaired {
		t.Fatal("clean scrub rewrote the manifest")
	}
}

func TestScrubEmptyDirReportsNoManifest(t *testing.T) {
	rep, err := Scrub(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ManifestPresent || !rep.Clean() {
		t.Fatalf("empty dir scrub: %+v", rep)
	}
}

// TestScrubMissingDirIsAnError: a mistyped path is refused, not scrubbed as
// an empty checkpoint, and nothing is created under it.
func TestScrubMissingDirIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nosuchdir")
	if rep, err := Scrub(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("scrub of a missing dir: %+v, err = %v; want fs.ErrNotExist", rep, err)
	}
	if _, err := os.Lstat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("scrub of a missing dir left %s behind (%v)", dir, err)
	}
}

// TestScrubRepairsDamagedCheckpoint truncates one subgraph, bit-flips one
// superkmer file, and plants an orphaned .tmp; Scrub must sweep the
// orphan, quarantine both damaged files (preserving their bytes for
// inspection), drop only the damaged Step 2 claim, and leave a checkpoint
// from which a fault-free resume converges byte-identically to the
// original build.
func TestScrubRepairsDamagedCheckpoint(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	first := buildCheckpointed(t, reads, cfg)

	// Superkmer damage is a mid-file bit flip, caught by the msp footer
	// CRC; subgraph damage is a truncation, caught by the manifest's size
	// claim (the fixed-width graph encoding carries no checksum of its
	// own — the size and structure checks are its verification, exactly
	// as on the resume path).
	flip := func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncate := func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncate(dataFile(dir, subgraphFile(2)))
	flip(dataFile(dir, superkmerFile(5)))
	orphan := dataFile(dir, "superkmers/0001.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Swept) != 1 || rep.Swept[0] != "superkmers/0001.tmp" {
		t.Fatalf("Swept = %v", rep.Swept)
	}
	// Bit-flips are caught by CRC (step1) and, for the fixed-size subgraph
	// encoding, by the parse/vertex-count check.
	if rep.Step1Damaged != 1 || rep.Step2Damaged != 1 {
		t.Fatalf("damaged = %d/%d, want 1/1 (%+v)", rep.Step1Damaged, rep.Step2Damaged, rep)
	}
	if !rep.ManifestRepaired {
		t.Fatal("damaged Step 2 claim not dropped")
	}
	for _, name := range []string{subgraphFile(2), superkmerFile(5)} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.FromSlash(name))); err != nil {
			t.Errorf("quarantined copy of %q: %v", name, err)
		}
		if _, err := os.Stat(dataFile(dir, name)); !os.IsNotExist(err) {
			t.Errorf("damaged %q still in data dir: %v", name, err)
		}
	}
	m, err := manifest.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Step2For(2) != nil {
		t.Fatal("damaged Step 2 claim survived repair")
	}
	if m.Step1For(5) == nil {
		t.Fatal("Step 1 claim dropped; resume can no longer target the rebuild")
	}

	// A second scrub over the repaired checkpoint must be fully clean.
	again, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 5's Step 1 claim remains with its file quarantined — scrub
	// keeps reporting it damaged (idempotent), but nothing new moves.
	if len(again.Swept) != 0 || again.Step2Damaged != 0 || len(again.Quarantined) != 0 {
		t.Fatalf("second scrub not idempotent: %+v", again)
	}

	cfg.Checkpoint.Resume = true
	second := buildCheckpointed(t, reads, cfg)
	if !second.Graph.Equal(first.Graph) {
		t.Fatal("resume after scrub diverges from original graph")
	}
	// Scrub already dropped partition 2's claim, so the resume re-executes
	// it as never-done (not "rebuilt" — no claim failed at resume time);
	// partition 5's verified subgraph means its quarantined Step 1 file is
	// never needed.
	if got := second.Stats.ResumedPartitions; got != cfg.NumPartitions-1 {
		t.Fatalf("resumed %d partitions, want %d", got, cfg.NumPartitions-1)
	}
}

// TestDiskFullFailsGracefully is the storage-hardening acceptance scenario:
// a capacity budget exhausted mid-Step-2 must fail the build with a typed
// store.ErrDiskFull (not hang in retries — disk-full is deterministic),
// leave a manifest Scrub verifies clean, and a fault-free -resume in the
// same directory must converge byte-identically to the fault-free oracle.
func TestDiskFullFailsGracefully(t *testing.T) {
	reads := tinyReads(t)
	oracleCfg := tinyConfig()
	oracle, err := Build(reads, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serializeGraph(t, oracle.Graph)

	cfg, dir := ckConfig(t)
	// Probe a fault-free checkpointed build to size the budget: all of
	// Step 1 plus one subgraph, so the disk fills on the second subgraph
	// publish.
	probeCfg, _ := ckConfig(t)
	buildCheckpointed(t, reads, probeCfg)
	probe, err := manifest.Load(filepath.Join(probeCfg.Checkpoint.Dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var budget int64
	for _, rec := range probe.Step1 {
		budget += rec.Bytes
	}
	budget += probe.Step2[0].Bytes + 1

	cfg.StoreWrap = func(st store.PartitionStore) store.PartitionStore {
		fs := faultinject.WrapStore(st)
		fs.SetCapacityBytes(budget)
		return fs
	}
	_, err = Build(reads, cfg)
	if !errors.Is(err, store.ErrDiskFull) {
		t.Fatalf("exhausted capacity: err = %v, want store.ErrDiskFull", err)
	}

	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestPresent || !rep.Step1Done {
		t.Fatalf("disk-full run left untrustworthy manifest: %+v", rep)
	}
	if rep.Step1Damaged != 0 || rep.Step2Damaged != 0 {
		t.Fatalf("disk-full run left damaged claims: %+v", rep)
	}
	if rep.Step1Verified != cfg.NumPartitions {
		t.Fatalf("Step 1 claims verified = %d, want %d", rep.Step1Verified, cfg.NumPartitions)
	}

	// The disk "recovers" (no wrapper) and the build resumes to completion.
	resumeCfg := cfg
	resumeCfg.StoreWrap = nil
	resumeCfg.Checkpoint.Resume = true
	res := buildCheckpointed(t, reads, resumeCfg)
	if got := serializeGraph(t, res.Graph); !bytes.Equal(got, wantBytes) {
		t.Fatal("resume after disk-full is not byte-identical to the oracle")
	}
	if res.Stats.ResumedPartitions == 0 {
		t.Fatal("resume after disk-full resumed nothing (Step 2 progress lost)")
	}
}

// TestNothingOutlivesResumeOrScrub plants in a finished checkpoint one
// leftover of each kind a crash or a dead fleet leaves — a fenced subgraph,
// a fenced run, an orphaned *.tmp and an unclaimed run. A single-process
// resume and a Scrub judge the checkpoint by the same rule, so each removes
// all four: the resume to the finished build's graph, the Scrub to a
// checkpoint a second Scrub finds clean. A resume also drops a dead fleet's
// leases and keeps its token high-water.
func TestNothingOutlivesResumeOrScrub(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	cfg.KeepSubgraphs = false
	want := writtenGraph(t, buildCheckpointed(t, reads, cfg))
	leftovers := []string{"subgraphs/0005.t7", "spill/0009/run-0002.t3", "subgraphs/0004.tmp", spillRunFile(2, 0)}
	plant := func() {
		t.Helper()
		for _, name := range leftovers {
			p := dataFile(dir, name)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte("left behind"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGone := func(after string) {
		t.Helper()
		for _, name := range leftovers {
			if _, err := os.Stat(dataFile(dir, name)); !os.IsNotExist(err) {
				t.Errorf("%s survived the %s (%v)", name, after, err)
			}
		}
	}
	cfg.Checkpoint.Resume = true

	plant()
	if got := writtenGraph(t, buildCheckpointed(t, reads, cfg)); !bytes.Equal(got, want) {
		t.Error("the resumed graph differs from the finished build's")
	}
	checkGone("resume")

	plant()
	rep, err := Scrub(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Swept) != len(leftovers) || len(rep.Quarantined) != 0 || rep.ManifestRepaired {
		t.Errorf("scrub of leftovers alone: %+v", rep)
	}
	checkGone("scrub")
	if again, err := Scrub(dir); err != nil || !again.Clean() || again.ManifestRepaired {
		t.Errorf("second scrub: %+v, %v", again, err)
	}

	// A dead fleet's lease, and a lost subgraph so the resume saves.
	manPath := filepath.Join(dir, "manifest.json")
	m, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	token := m.NextLeaseToken()
	m.SetLease(manifest.Lease{Start: 3, Count: 2, Worker: "w0", Token: token})
	if err := m.Save(manPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dataFile(dir, subgraphFile(3))); err != nil {
		t.Fatal(err)
	}
	if got := writtenGraph(t, buildCheckpointed(t, reads, cfg)); !bytes.Equal(got, want) {
		t.Error("the graph resumed past a lease differs from the finished build's")
	}
	if m, err = manifest.Load(manPath); err != nil {
		t.Fatal(err)
	}
	if len(m.Leases) != 0 || m.LeaseToken != token {
		t.Errorf("the resume saved leases %+v, token high-water %d; want none, %d", m.Leases, m.LeaseToken, token)
	}
}
