package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"
)

// TestPromoteFencedRefusesDamagedFiles damages a worker's fenced subgraph in
// each way the finish would refuse it. Promotion must refuse it first — no
// canonical file, no Step 2 claim, so the coordinator re-pools the
// partition — and a fresh lease's intact file then finishes to the graph a
// single-process build writes.
func TestPromoteFencedRefusesDamagedFiles(t *testing.T) {
	reads := tinyReads(t)
	single := tinyConfig()
	single.KeepSubgraphs = false
	ref, err := Build(reads, single)
	if err != nil {
		t.Fatal(err)
	}
	want := writtenGraph(t, ref)

	cfg, dir := ckConfig(t)
	cfg.KeepSubgraphs = false
	ctx := context.Background()
	plan, err := PrepareDistBuild(ctx, reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewDistWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var token int64
	// construct runs partition i under a fresh lease token and returns the
	// fenced file's path and the worker's report.
	construct := func(i int) (string, DistOutput) {
		t.Helper()
		token++
		out, err := worker.Construct(ctx, i, FencedName(i, token))
		if err != nil {
			t.Fatal(err)
		}
		return dataFile(dir, out.Name), out
	}
	const victim = 3
	for _, i := range plan.Pending() {
		if i == victim {
			continue
		}
		_, out := construct(i)
		if err := plan.PromoteFenced(ctx, i, token, out.Distinct, out.Counters); err != nil {
			t.Fatal(err)
		}
	}

	const head, rec = 15, 16 // version 2, k=27, every count below 256
	damages := map[string]func(img []byte) []byte{
		"unsorted": func(img []byte) []byte {
			a, b := img[head:head+rec], img[head+rec:head+2*rec]
			tmp := bytes.Clone(a)
			copy(a, b)
			copy(b, tmp)
			return img
		},
		"duplicate k-mer":   func(img []byte) []byte { copy(img[head+rec:head+rec+8], img[head:head+8]); return img },
		"wrong k":           func(img []byte) []byte { img[5]++; return img },
		"one trailing byte": func(img []byte) []byte { return append(img, 0) },
		"one record short":  func(img []byte) []byte { return img[:len(img)-rec] },
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			path, out := construct(victim)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if phdgHead, phdgRec := phdgLayout(t, img); phdgHead != head || phdgRec != rec || len(img) < head+2*rec {
				t.Fatalf("partition %d's subgraph has %d bytes, too few to damage", victim, len(img))
			}
			if err := os.WriteFile(path, damage(img), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := plan.PromoteFenced(ctx, victim, token, out.Distinct, out.Counters); !errors.Is(err, ErrFencedRefused) {
				t.Errorf("err = %v, want ErrFencedRefused", err)
			}
			if _, err := os.Stat(dataFile(dir, subgraphFile(victim))); !os.IsNotExist(err) {
				t.Fatalf("a canonical file is there (%v)", err)
			}
			if err := plan.Flush(); err != nil {
				t.Fatal(err)
			}
			if plan.Manifest().Step2For(victim) != nil || plan.Done() {
				t.Fatal("the partition is claimed")
			}
		})
	}

	_, out := construct(victim)
	if err := plan.PromoteFenced(ctx, victim, token, out.Distinct, out.Counters); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SweepFenced(); err != nil {
		t.Fatal(err)
	}
	res, err := plan.Finish(DistStats{})
	if err != nil {
		t.Fatal(err)
	}
	if got := writtenGraph(t, res); !bytes.Equal(got, want) {
		t.Fatal("the graph finished after the refusals differs from a single-process build's")
	}
}
