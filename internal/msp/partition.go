package msp

import (
	"fmt"
	"io"

	"parahash/internal/dna"
)

// PartitionStats accumulates the per-partition quantities the paper's
// parameter study reports (Fig. 6, Table II): superkmer and k-mer counts,
// base totals, and encoded byte sizes.
type PartitionStats struct {
	// Superkmers is the number of superkmer records in the partition.
	Superkmers int64
	// Kmers is the number of k-mers the partition's superkmers contain —
	// the N^i_kmer of the paper, which drives the hash table size.
	Kmers int64
	// Bases is the total number of bases across superkmers.
	Bases int64
	// EncodedBytes is the partition's 2-bit-encoded byte size.
	EncodedBytes int64
	// PlainBytes is what the partition would occupy without bit-encoding
	// (one character per base), for the encoding ablation.
	PlainBytes int64
}

// Writer routes superkmers to per-partition encoders by minimizer hash.
// It is not safe for concurrent use; Step 1 workers buffer superkmers and a
// single output stage drains them, matching the paper's pipeline in which
// the output stage is a distinct pipeline phase.
type Writer struct {
	k             int
	numPartitions int
	encoders      []*Encoder
	closers       []io.Closer
	stats         []PartitionStats
}

// NewPartitionWriter creates a Writer over numPartitions sinks; open is
// called once per partition index to create its sink. The k parameter is
// used only for k-mer accounting in stats.
func NewPartitionWriter(k, numPartitions int, open func(i int) (io.WriteCloser, error)) (*Writer, error) {
	if numPartitions <= 0 {
		return nil, fmt.Errorf("msp: number of partitions %d must be positive", numPartitions)
	}
	w := &Writer{
		k:             k,
		numPartitions: numPartitions,
		encoders:      make([]*Encoder, numPartitions),
		closers:       make([]io.Closer, numPartitions),
		stats:         make([]PartitionStats, numPartitions),
	}
	for i := 0; i < numPartitions; i++ {
		sink, err := open(i)
		if err != nil {
			w.Close() // release the sinks already opened
			return nil, fmt.Errorf("msp: opening partition %d: %w", i, err)
		}
		w.encoders[i] = NewEncoder(sink)
		w.closers[i] = sink
	}
	return w, nil
}

// NumPartitions returns the partition count.
func (w *Writer) NumPartitions() int { return w.numPartitions }

// partitionOf resolves a superkmer's partition index: the scan-time stamp
// when present and in range, the minimizer hash otherwise.
func (w *Writer) partitionOf(sk *Superkmer) int {
	if sk.PartValid {
		if idx := int(sk.Part); idx >= 0 && idx < w.numPartitions {
			return idx
		}
	}
	return Partition(sk.Minimizer, w.numPartitions)
}

// WriteSuperkmer encodes sk into its partition.
func (w *Writer) WriteSuperkmer(sk Superkmer) error {
	idx := w.partitionOf(&sk)
	if err := w.encoders[idx].Encode(sk); err != nil {
		return fmt.Errorf("msp: writing partition %d: %w", idx, err)
	}
	w.account(idx, &sk)
	return nil
}

// account folds one routed record into its partition's statistics.
func (w *Writer) account(idx int, sk *Superkmer) {
	st := &w.stats[idx]
	n := len(sk.Bases)
	st.Superkmers++
	st.Kmers += int64(n - w.k + 1)
	st.Bases += int64(n)
	st.EncodedBytes += int64(EncodedSize(n))
	st.PlainBytes += int64(PlainEncodedSize(n))
}

// WriteBatch routes a batch of superkmers — the Step 1 output stage's unit
// of work — returning how many records were fully written and their total
// encoded bytes. Records carrying a scan-time partition stamp skip the
// per-record minimizer hash entirely; a failed record stops the batch, and
// the returned count lets a retried write resume after the prefix already
// routed (encoded partition files are append-ordered, so a resumed batch
// stays byte-identical).
func (w *Writer) WriteBatch(sks []Superkmer) (int, int64, error) {
	var bytes int64
	for i := range sks {
		sk := &sks[i]
		idx := w.partitionOf(sk)
		if err := w.encoders[idx].Encode(*sk); err != nil {
			return i, bytes, fmt.Errorf("msp: writing partition %d: %w", idx, err)
		}
		w.account(idx, sk)
		bytes += int64(EncodedSize(len(sk.Bases)))
	}
	return len(sks), bytes, nil
}

// WriteRead scans a read with the scanner and writes all its superkmers.
func (w *Writer) WriteRead(sc *Scanner, read []dna.Base, scratch []Superkmer) ([]Superkmer, error) {
	scratch = sc.Superkmers(scratch[:0], read)
	for _, sk := range scratch {
		if err := w.WriteSuperkmer(sk); err != nil {
			return scratch, err
		}
	}
	return scratch, nil
}

// Stats returns a copy of the per-partition statistics.
func (w *Writer) Stats() []PartitionStats {
	out := make([]PartitionStats, len(w.stats))
	copy(out, w.stats)
	return out
}

// FileInfo describes one partition's finalised encoded file: its total byte
// size (records plus integrity footer) and the CRC32 of its record bytes —
// what the build manifest records for resume verification.
type FileInfo struct {
	Bytes int64
	CRC32 uint32
}

// FileInfos returns each partition's finalised file footprint. Call after
// Close; before the footers are written the sizes are records-only.
func (w *Writer) FileInfos() []FileInfo {
	out := make([]FileInfo, len(w.encoders))
	for i, e := range w.encoders {
		if e != nil {
			out[i] = FileInfo{Bytes: e.Bytes, CRC32: e.Sum32()}
		}
	}
	return out
}

// Close finalises every encoder — writing each partition's integrity
// footer — and closes every sink (even one whose footer write failed),
// attempting all of them and returning the lowest-indexed partition's error.
// The build's sinks publish without an fsync (the files are flushed together
// before the roster claims them), so there is no device wait to overlap.
func (w *Writer) Close() error {
	var first error
	for i, enc := range w.encoders {
		var err error
		if enc != nil {
			err = enc.Close()
		}
		if w.closers[i] != nil {
			if cerr := w.closers[i].Close(); err == nil {
				err = cerr
			}
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// SummarizeStats aggregates per-partition stats into totals plus the
// max/mean/variance figures used by the parameter study.
type StatsSummary struct {
	TotalSuperkmers int64
	TotalKmers      int64
	TotalBases      int64
	TotalEncoded    int64
	TotalPlain      int64
	MaxKmers        int64
	MeanKmers       float64
	// KmerVariance is the variance of per-partition k-mer counts; Fig. 6
	// tracks how it shrinks as the minimizer length P grows.
	KmerVariance float64
}

// EncodingRatio is the encoded partition bytes over the plain-text bytes
// they encode (≈0.26 with 2-bit packing), or 0 when nothing was encoded.
func (s StatsSummary) EncodingRatio() float64 {
	if s.TotalPlain == 0 {
		return 0
	}
	return float64(s.TotalEncoded) / float64(s.TotalPlain)
}

// SummarizeStats computes a StatsSummary over per-partition stats.
func SummarizeStats(stats []PartitionStats) StatsSummary {
	var s StatsSummary
	if len(stats) == 0 {
		return s
	}
	for _, st := range stats {
		s.TotalSuperkmers += st.Superkmers
		s.TotalKmers += st.Kmers
		s.TotalBases += st.Bases
		s.TotalEncoded += st.EncodedBytes
		s.TotalPlain += st.PlainBytes
		if st.Kmers > s.MaxKmers {
			s.MaxKmers = st.Kmers
		}
	}
	s.MeanKmers = float64(s.TotalKmers) / float64(len(stats))
	var acc float64
	for _, st := range stats {
		d := float64(st.Kmers) - s.MeanKmers
		acc += d * d
	}
	s.KmerVariance = acc / float64(len(stats))
	return s
}
