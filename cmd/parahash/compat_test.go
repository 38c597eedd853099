package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parahash/internal/graph"
	"parahash/internal/graph/graphtest"
	"parahash/internal/manifest"
)

// toVersion1 turns the finished checkpoint ck into one an older binary left
// mid-build: every subgraph rewritten in version 1, the claims of the even
// partitions kept at their version-1 sizes, the odd ones' dropped so that a
// resume rebuilds them in version 2 over the old files. It returns how many
// claims it kept.
func toVersion1(t *testing.T, ck string) int {
	t.Helper()
	mpath := filepath.Join(ck, "manifest.json")
	m, err := manifest.Load(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []manifest.Step2Partition
	for _, rec := range m.Step2 {
		path := filepath.Join(ck, "data", rec.Name)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.ReadSubgraph(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		old := graphtest.Version1(g)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if rec.Bytes = int64(len(old)); rec.Index%2 == 0 {
			kept = append(kept, rec)
		}
	}
	m.Step2 = kept
	if err := m.Save(mpath); err != nil {
		t.Fatal(err)
	}
	return len(kept)
}

// TestResumeFromVersion1Checkpoint: a checkpoint whose Step 2 claims name
// version-1 subgraphs at their version-1 sizes resumes — those claims
// trusted, the rest rebuilt — to the fresh build's -out, in one process,
// under a partition budget that spills every partition, and under -workers 2.
func TestResumeFromVersion1Checkpoint(t *testing.T) {
	modes := map[string][]string{
		"single":  nil,
		"spilled": {"-partition-mem-budget", "2K"},
		"workers": {"-workers", "2"},
	}
	for name, extra := range modes {
		t.Run(name, func(t *testing.T) {
			if extra != nil && extra[0] == "-workers" {
				if testing.Short() {
					t.Skip("re-exec e2e skipped in -short")
				}
				orig := workerCommand
				defer func() { workerCommand = orig }()
				workerCommand = helperWorkers(nil)
			}
			dir := t.TempDir()
			ck := filepath.Join(dir, "ck")
			args := append([]string{"-profile", "tiny", "-partitions", "8", "-threads", "4", "-checkpoint-dir", ck}, extra...)
			fresh, resumed := filepath.Join(dir, "fresh.dbg"), filepath.Join(dir, "resumed.dbg")
			var buf bytes.Buffer
			if err := run(append(args, "-out", fresh), &buf); err != nil {
				t.Fatal(err)
			}
			claimed := toVersion1(t, ck)
			buf.Reset()
			if err := run(append(args, "-out", resumed, "-resume"), &buf); err != nil {
				t.Fatalf("resume over version-1 subgraphs: %v\n%s", err, buf.String())
			}
			if want := fmt.Sprintf("%d partitions resumed, 0 rebuilt", claimed); !strings.Contains(buf.String(), want) {
				t.Errorf("resume summary missing %q:\n%s", want, buf.String())
			}
			if workers := strings.Contains(buf.String(), "distributed build: 2 workers"); workers != (name == "workers") {
				t.Errorf("distributed build %v, want %v:\n%s", workers, name == "workers", buf.String())
			}
			a, err := os.ReadFile(fresh)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("the resumed -out differs from the fresh build's")
			}
		})
	}
}
