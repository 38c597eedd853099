package device

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"parahash/internal/graph"
	"parahash/internal/hashtable"
	"parahash/internal/iosim"
	"parahash/internal/msp"
)

// foldedAndExpanded returns one partition twice: as Step 2 loads it — its
// file image decoded, identical records folded — and as the records that
// file holds, one by one. Every record is written twice, so folding is
// certain whatever the reads' coverage.
func foldedAndExpanded(t *testing.T) (folded, expanded []msp.Superkmer) {
	t.Helper()
	sks := gatherSuperkmers(t, testReads(t), 27, 11)
	var buf bytes.Buffer
	enc := msp.NewEncoder(&buf)
	for _, sk := range append(sks, sks...) {
		sk.Minimizer = 0 // not stored on disk
		expanded = append(expanded, sk)
		if err := enc.Encode(sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := msp.DecodePartition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(p.Superkmers) > len(expanded) || p.Records != int64(len(expanded)) {
		t.Fatalf("%d records folded to %d standing for %d", len(expanded), len(p.Superkmers), p.Records)
	}
	return p.Superkmers, expanded
}

// walkedKmers counts the k-mers a kernel walks over sks: each folded
// superkmer once.
func walkedKmers(sks []msp.Superkmer, k int) int64 {
	var n int64
	for _, sk := range sks {
		n += int64(sk.NumKmers(k))
	}
	return n
}

func serialized(t *testing.T, g *graph.Subgraph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStep2FoldedMatchesExpanded holds both kernels to the weights: a folded
// partition builds the same bytes, counts the same k-mers and inserts as the
// records it stands for, and performs one table operation per k-mer walked.
func TestStep2FoldedMatchesExpanded(t *testing.T) {
	const k = 27
	folded, expanded := foldedAndExpanded(t)
	slots := hashtable.SizeForKmers(int64(len(expanded)*80), 2, 0.65)
	for _, p := range []Processor{&CPU{Threads: 1}, &CPU{Threads: 4}, &GPU{}} {
		want, err := p.Step2(context.Background(), expanded, k, slots)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Step2(context.Background(), folded, k, slots)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialized(t, got.Graph), serialized(t, want.Graph)) {
			t.Fatalf("%s: folded partition builds a different graph", p.Name())
		}
		if got.Kmers != want.Kmers || got.TableBytes != want.TableBytes || got.TransferBytes != want.TransferBytes {
			t.Fatalf("%s: folded kmers/table/transfer %d/%d/%d, expanded %d/%d/%d", p.Name(),
				got.Kmers, got.TableBytes, got.TransferBytes, want.Kmers, want.TableBytes, want.TransferBytes)
		}
		if got.Hash.Inserts != want.Hash.Inserts || got.Hash.Inserts+got.Hash.Updates != walkedKmers(folded, k) {
			t.Fatalf("%s: %d inserts + %d updates, want %d inserts and %d operations in all", p.Name(),
				got.Hash.Inserts, got.Hash.Updates, want.Hash.Inserts, walkedKmers(folded, k))
		}
	}
}

// TestGPUStep2ChargesFoldedPartitionInFull: the device holds and receives
// the partition as its file holds it, so a folded partition gets the same
// device-memory verdict and transfer as its expanded form — and, since
// core's step2Cost charges from these counts alone, the same virtual time.
func TestGPUStep2ChargesFoldedPartitionInFull(t *testing.T) {
	const k, slots = 27, 1 << 16
	folded, expanded := foldedAndExpanded(t)
	var partBytes int64
	for _, sk := range expanded {
		partBytes += int64(msp.EncodedSize(len(sk.Bases)))
	}
	fits := hashtable.MemoryBytesFor(slots) + partBytes
	for _, memory := range []int64{fits - 1, fits, 0} {
		var outs [2]Step2Output
		var errs [2]error
		for i, sks := range [][]msp.Superkmer{expanded, folded} {
			gpu := &GPU{MemoryBytes: memory}
			outs[i], errs[i] = gpu.Step2(context.Background(), sks, k, slots)
		}
		if errors.Is(errs[0], ErrDeviceMemory) != (memory == fits-1) || errors.Is(errs[1], ErrDeviceMemory) != errors.Is(errs[0], ErrDeviceMemory) {
			t.Fatalf("memory %d: expanded partition gives %v, folded %v", memory, errs[0], errs[1])
		}
		if errs[0] != nil {
			continue
		}
		if outs[1].TransferBytes != outs[0].TransferBytes || outs[1].Kmers != outs[0].Kmers || outs[1].TableBytes != outs[0].TableBytes {
			t.Fatalf("memory %d: folded transfer/kmers/table %d/%d/%d, expanded %d/%d/%d", memory,
				outs[1].TransferBytes, outs[1].Kmers, outs[1].TableBytes, outs[0].TransferBytes, outs[0].Kmers, outs[0].TableBytes)
		}
	}
}

// TestSpillFoldedMatchesInCoreAndUnfolded: weighted spill records merge to
// the in-core graph byte for byte, as the unfolded records do, and since
// one record stands for every copy, the same budget spills no more runs.
func TestSpillFoldedMatchesInCoreAndUnfolded(t *testing.T) {
	const k = 27
	folded, expanded := foldedAndExpanded(t)
	slots := hashtable.SizeForKmers(int64(len(expanded)*80), 2, 0.65)
	inCore, err := (&CPU{Threads: 2}).Step2(context.Background(), expanded, k, slots)
	if err != nil {
		t.Fatal(err)
	}
	want := serialized(t, inCore.Graph)
	for _, bufferBytes := range []int64{1 << 30, 1 << 16, 1 << 11} {
		var runs [2]int
		for i, sks := range [][]msp.Superkmer{expanded, folded} {
			cfg := externalTestConfig(iosim.NewStore(), k, bufferBytes)
			spill, err := SpillRuns(context.Background(), sks, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := MergeSpilled(context.Background(), spill.RunNames, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serialized(t, out.Graph), want) {
				t.Fatalf("buffer %d, folded %v: spilled graph differs from in-core", bufferBytes, i == 1)
			}
			if spill.Kmers != inCore.Kmers {
				t.Fatalf("buffer %d, folded %v: spill scanned %d k-mers, in-core %d", bufferBytes, i == 1, spill.Kmers, inCore.Kmers)
			}
			runs[i] = len(spill.RunNames)
		}
		if runs[1] > runs[0] || bufferBytes == 1<<11 && runs[1] == runs[0] {
			t.Fatalf("buffer %d: folded partition spills %d runs, unfolded %d", bufferBytes, runs[1], runs[0])
		}
	}
}
