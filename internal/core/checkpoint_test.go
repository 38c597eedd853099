package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"parahash/internal/fastq"
	"parahash/internal/graph"
	"parahash/internal/manifest"
)

// ckConfig returns a checkpointed config rooted at a fresh directory.
func ckConfig(t *testing.T) (Config, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Checkpoint = CheckpointConfig{Dir: dir, InputLabel: "test:tiny"}
	return cfg, dir
}

// dataFile maps a store name to its on-disk path under the checkpoint dir.
func dataFile(dir, name string) string {
	return filepath.Join(dir, "data", filepath.FromSlash(name))
}

func buildCheckpointed(t *testing.T, reads []fastq.Read, cfg Config) *Result {
	t.Helper()
	res, err := Build(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckpointFreshBuildJournalsEverything(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	res := buildCheckpointed(t, reads, cfg)

	want := graph.BuildNaive(reads, cfg.K)
	if !res.Graph.Equal(want) {
		t.Fatal("checkpointed build diverges from naive reference")
	}
	if res.Stats.ResumedPartitions != 0 || res.Stats.RebuiltPartitions != 0 {
		t.Fatalf("fresh build reports resumed=%d rebuilt=%d",
			res.Stats.ResumedPartitions, res.Stats.RebuiltPartitions)
	}
	m, err := manifest.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Step1Done || len(m.Step1) != cfg.NumPartitions || len(m.Step2) != cfg.NumPartitions {
		t.Fatalf("manifest incomplete: done=%v step1=%d step2=%d",
			m.Step1Done, len(m.Step1), len(m.Step2))
	}
	for i := 0; i < cfg.NumPartitions; i++ {
		if _, err := os.Stat(dataFile(dir, superkmerFile(i))); err != nil {
			t.Errorf("partition %d superkmer file: %v", i, err)
		}
		if _, err := os.Stat(dataFile(dir, subgraphFile(i))); err != nil {
			t.Errorf("partition %d subgraph file: %v", i, err)
		}
	}
}

func TestResumeCompletedBuildSkipsAllPartitions(t *testing.T) {
	reads := tinyReads(t)
	cfg, _ := ckConfig(t)
	first := buildCheckpointed(t, reads, cfg)

	cfg.Checkpoint.Resume = true
	second := buildCheckpointed(t, reads, cfg)
	if got := second.Stats.ResumedPartitions; got != cfg.NumPartitions {
		t.Fatalf("resumed %d partitions, want all %d", got, cfg.NumPartitions)
	}
	if second.Stats.RebuiltPartitions != 0 {
		t.Fatalf("rebuilt %d on a clean resume", second.Stats.RebuiltPartitions)
	}
	if !second.Graph.Equal(first.Graph) {
		t.Fatal("resumed graph differs from original")
	}
	if second.Stats.DistinctVertices != first.Stats.DistinctVertices ||
		second.Stats.TotalKmers != first.Stats.TotalKmers ||
		second.Stats.DuplicateVertices != first.Stats.DuplicateVertices {
		t.Fatalf("resumed stats diverge: %+v vs %+v",
			second.Stats.DistinctVertices, first.Stats.DistinctVertices)
	}
}

// TestResumeSavesDroppedLeases: a resume that verifies every partition has
// no claim to save, but the dead fleet's leases it drops still reach the
// disk, and the token high-water stays.
func TestResumeSavesDroppedLeases(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	buildCheckpointed(t, reads, cfg)
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

	cfg.Checkpoint.Resume = true
	if res := buildCheckpointed(t, reads, cfg); res.Stats.ResumedPartitions != cfg.NumPartitions {
		t.Fatalf("resumed %d partitions, want all %d", res.Stats.ResumedPartitions, cfg.NumPartitions)
	}
	if m, err = manifest.Load(manPath); err != nil {
		t.Fatal(err)
	}
	if len(m.Leases) != 0 || m.LeaseToken != token {
		t.Errorf("manifest after the resume: leases %+v, token high-water %d; want none, %d", m.Leases, m.LeaseToken, token)
	}
}

// TestIsFencedSubgraph: the leftover rule's fenced-name check accepts a
// canonical subgraph name with a ".t<token>" suffix and nothing else.
func TestIsFencedSubgraph(t *testing.T) {
	for name, want := range map[string]bool{
		"subgraphs/0005.t7":      true,
		"subgraphs/12.t123":      true,
		"subgraphs/0005":         false,
		"subgraphs/0005.tmp":     false,
		"subgraphs/0005.t7.tmp":  false,
		"subgraphs/0005.t":       false,
		"subgraphs/.t7":          false,
		"subgraphs/0005.tt7":     false,
		"spill/0005/run-0001.t3": false,
		FencedName(5, 7):         true,
		"superkmers/0005.t7":     false,
		"subgraphs/0005.t7/0001": false,
		"subgraphs/0x05.t7":      false,
		"subgraphs/0005.t\u0667": false,
	} {
		if got := isFencedSubgraph(name); got != want {
			t.Errorf("isFencedSubgraph(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestResumeRebuildsDeletedSubgraph(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	first := buildCheckpointed(t, reads, cfg)

	victim := dataFile(dir, subgraphFile(3))
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	second := buildCheckpointed(t, reads, cfg)
	if second.Stats.ResumedPartitions != cfg.NumPartitions-1 || second.Stats.RebuiltPartitions != 1 {
		t.Fatalf("resumed=%d rebuilt=%d, want %d/1",
			second.Stats.ResumedPartitions, second.Stats.RebuiltPartitions, cfg.NumPartitions-1)
	}
	if !second.Graph.Equal(first.Graph) {
		t.Fatal("rebuilt graph differs from original")
	}
	rebuilt, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(pristine) {
		t.Fatal("rebuilt subgraph file is not byte-identical to the original")
	}
}

func TestResumeRebuildsCorruptSuperkmerFile(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	first := buildCheckpointed(t, reads, cfg)

	// Corrupt partition 7's Step 1 file AND remove its subgraph: the resume
	// must detect the CRC mismatch, selectively re-scan, and republish a
	// byte-identical partition file (record order = global read order).
	skFile := dataFile(dir, superkmerFile(7))
	pristine, err := os.ReadFile(skFile)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), pristine...)
	mut[len(mut)/2] ^= 0x01
	if err := os.WriteFile(skFile, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dataFile(dir, subgraphFile(7))); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	second := buildCheckpointed(t, reads, cfg)
	if second.Stats.ResumedPartitions != cfg.NumPartitions-1 || second.Stats.RebuiltPartitions != 1 {
		t.Fatalf("resumed=%d rebuilt=%d, want %d/1",
			second.Stats.ResumedPartitions, second.Stats.RebuiltPartitions, cfg.NumPartitions-1)
	}
	if !second.Graph.Equal(first.Graph) {
		t.Fatal("graph after selective rebuild differs from original")
	}
	rebuilt, err := os.ReadFile(skFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(pristine) {
		t.Fatal("rebuilt superkmer file is not byte-identical (record order not deterministic?)")
	}
}

func TestResumeCorruptSubgraphDetectedBySize(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	first := buildCheckpointed(t, reads, cfg)

	victim := dataFile(dir, subgraphFile(0))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	second := buildCheckpointed(t, reads, cfg)
	if second.Stats.RebuiltPartitions != 1 {
		t.Fatalf("truncated subgraph not rebuilt: rebuilt=%d", second.Stats.RebuiltPartitions)
	}
	if !second.Graph.Equal(first.Graph) {
		t.Fatal("graph after truncated-subgraph rebuild differs")
	}
}

// TestResumeMisorderedSubgraphRebuilt: a subgraph file of the right size
// and vertex count whose records are out of order is damage — the final
// merge requires sorted inputs — so resume rebuilds the partition instead
// of handing the file to graph.Merge.
func TestResumeMisorderedSubgraphRebuilt(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	first := buildCheckpointed(t, reads, cfg)

	victim := dataFile(dir, subgraphFile(0))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadSubgraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() < 2 {
		t.Fatalf("partition 0 holds %d vertices, test needs 2", g.NumVertices())
	}
	last := len(g.Vertices) - 1
	g.Vertices[0], g.Vertices[last] = g.Vertices[last], g.Vertices[0]
	var damaged bytes.Buffer
	if err := g.Write(&damaged); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, damaged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	second := buildCheckpointed(t, reads, cfg)
	if second.Stats.RebuiltPartitions != 1 {
		t.Fatalf("mis-ordered subgraph not rebuilt: rebuilt=%d", second.Stats.RebuiltPartitions)
	}
	if !second.Graph.Equal(first.Graph) {
		t.Fatal("graph after mis-ordered-subgraph rebuild differs")
	}
}

// TestClosedCheckpointJournalsNothing: an attempt that outlives its build
// (abandoned by the watchdog, or still unwinding from a cancellation) must
// not write the manifest once the build has returned — by then a Scrub or
// a resume owns the file.
func TestClosedCheckpointJournalsNothing(t *testing.T) {
	cfg, dir := ckConfig(t)
	_, ck, err := openCheckpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := manifest.SpillRun{Partition: 0, Run: 0, Name: spillRunFile(0, 0), Bytes: 18, Vertices: 0}
	if err := ck.journalSpillScan(0, []manifest.SpillRun{run}); err != nil {
		t.Fatalf("journalling on an open checkpoint: %v", err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck.close()
	run.Partition = 1
	if err := ck.journalSpillScan(1, []manifest.SpillRun{run}); !errors.Is(err, errCheckpointClosed) {
		t.Errorf("journalSpillScan after close: err = %v, want errCheckpointClosed", err)
	}
	if err := ck.beginSpill(0); !errors.Is(err, errCheckpointClosed) {
		t.Errorf("beginSpill after close: err = %v, want errCheckpointClosed", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a closed checkpoint rewrote the manifest")
	}
}

func TestResumeFingerprintMismatchFailsFast(t *testing.T) {
	reads := tinyReads(t)
	cfg, _ := ckConfig(t)
	buildCheckpointed(t, reads, cfg)

	cases := []func(*Config){
		func(c *Config) { c.K = 25 },
		func(c *Config) { c.P = 9 },
		func(c *Config) { c.NumPartitions = 8 },
		func(c *Config) { c.Checkpoint.InputLabel = "test:other" },
	}
	for i, mutate := range cases {
		altered := cfg
		altered.Checkpoint.Resume = true
		mutate(&altered)
		_, err := Build(reads, altered)
		if !errors.Is(err, ErrManifestMismatch) {
			t.Errorf("case %d: err = %v, want ErrManifestMismatch", i, err)
		}
	}
	// Scheduling knobs never change partition bytes, so they must NOT
	// invalidate the checkpoint.
	resched := cfg
	resched.Checkpoint.Resume = true
	resched.CPUThreads = 2
	res, err := Build(reads, resched)
	if err != nil {
		t.Fatalf("rescheduled resume rejected: %v", err)
	}
	if res.Stats.ResumedPartitions != cfg.NumPartitions {
		t.Errorf("rescheduled resume re-executed partitions: resumed=%d", res.Stats.ResumedPartitions)
	}
}

func TestFreshRunClearsStaleCheckpoint(t *testing.T) {
	reads := tinyReads(t)
	cfg, dir := ckConfig(t)
	buildCheckpointed(t, reads, cfg)

	// A second run WITHOUT -resume in the same directory must not trust (or
	// trip over) the leftovers — including a stale alien file in the store.
	alien := dataFile(dir, "superkmers/9999")
	if err := os.WriteFile(alien, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := buildCheckpointed(t, reads, cfg)
	if res.Stats.ResumedPartitions != 0 {
		t.Fatalf("fresh run resumed %d partitions", res.Stats.ResumedPartitions)
	}
	if _, err := os.Stat(alien); !os.IsNotExist(err) {
		t.Errorf("fresh run kept stale store file: %v", err)
	}
	want := graph.BuildNaive(reads, cfg.K)
	if !res.Graph.Equal(want) {
		t.Fatal("fresh rebuild diverges from naive reference")
	}
}

func TestResumeWithMissingManifestStartsFresh(t *testing.T) {
	reads := tinyReads(t)
	cfg, _ := ckConfig(t)
	cfg.Checkpoint.Resume = true
	// No prior build: -resume against an empty directory is a fresh start,
	// not an error (first run of a crash-retry wrapper).
	res := buildCheckpointed(t, reads, cfg)
	if res.Stats.ResumedPartitions != 0 || res.Stats.RebuiltPartitions != 0 {
		t.Fatalf("empty-dir resume reports resumed=%d rebuilt=%d",
			res.Stats.ResumedPartitions, res.Stats.RebuiltPartitions)
	}
	want := graph.BuildNaive(reads, cfg.K)
	if !res.Graph.Equal(want) {
		t.Fatal("empty-dir resume build diverges from naive reference")
	}
}

func TestResumeValidationRequiresDir(t *testing.T) {
	cfg := tinyConfig()
	cfg.Checkpoint.Resume = true
	if _, err := Build(tinyReads(t), cfg); err == nil {
		t.Fatal("Resume without Dir accepted")
	}
}
