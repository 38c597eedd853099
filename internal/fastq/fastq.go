// Package fastq parses FASTA and FASTQ sequencing files into reads, and
// splits inputs into equal-size partitions, which is how ParaHash Step 1
// distributes the raw input across processors.
//
// The parser is streaming: it never materialises the whole file, matching
// the paper's requirement that inputs larger than memory be processed
// partition by partition.
package fastq

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"parahash/internal/dna"
)

// Read is one sequencing read: an identifier and its 2-bit encoded bases.
// Quality strings are not retained — De Bruijn graph construction uses only
// the base calls.
type Read struct {
	// ID is the record identifier without the leading '@' or '>'.
	ID string
	// Bases is the 2-bit encoded sequence; unknown characters become 'A'.
	Bases []dna.Base
}

// Format identifies the flavour of an input file.
type Format int

// Supported input formats.
const (
	FormatUnknown Format = iota
	FormatFASTQ
	FormatFASTA
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatFASTQ:
		return "fastq"
	case FormatFASTA:
		return "fasta"
	default:
		return "unknown"
	}
}

// ErrBadRecord reports a structurally invalid FASTA/FASTQ record.
var ErrBadRecord = errors.New("fastq: malformed record")

// ErrRecordTooLarge reports a record (line, or FASTA sequence) exceeding the
// reader's MaxRecordBytes cap. A malformed or hostile stream — a header with
// no newline, a gigabase single-record FASTA — must fail with a typed error
// instead of ballooning memory.
var ErrRecordTooLarge = errors.New("fastq: record exceeds size cap")

// DefaultMaxRecordBytes is the default per-record size cap: 64 MiB, two
// orders of magnitude above any real sequencing read and comfortably above
// chromosome-scale FASTA lines, while still bounding a hostile stream.
const DefaultMaxRecordBytes = 64 << 20

// slabBlock is the size in bases of the blocks a Reader decodes reads into.
const slabBlock = 64 << 10

// Reader streams reads from a FASTA or FASTQ source. The format is sniffed
// from the first record marker.
//
// Lines are taken in place from the bufio buffer and decoded straight into
// the Reader's slab: 64 KiB blocks that successive reads take
// capacity-limited sub-slices of, so a warm Reader allocates about one ID
// string per record. A block is never reused — a read keeps its block alive
// for as long as the caller holds it — and a read longer than a block gets
// its own array.
type Reader struct {
	br     *bufio.Reader
	format Format
	n      int // records delivered, for error context

	// MaxRecordBytes caps a single line (and a full FASTA record's
	// sequence) in bytes; longer records fail with ErrRecordTooLarge.
	// NewReader sets DefaultMaxRecordBytes; non-positive values select the
	// default.
	MaxRecordBytes int

	free []dna.Base // the unused tail of the current slab block, len 0
	long []byte     // scratch for a line longer than the bufio buffer
}

// NewReader wraps r in a streaming FASTA/FASTQ parser.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), MaxRecordBytes: DefaultMaxRecordBytes}
}

// maxRecordBytes resolves the effective record cap.
func (r *Reader) maxRecordBytes() int {
	if r.MaxRecordBytes > 0 {
		return r.MaxRecordBytes
	}
	return DefaultMaxRecordBytes
}

// Format returns the detected input format, valid after the first Next call.
func (r *Reader) Format() Format { return r.format }

// sniff determines the format from the first non-empty line's marker byte.
func (r *Reader) sniff() error {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return err
		}
		switch b {
		case '\n', '\r':
			continue
		case '@':
			r.format = FormatFASTQ
		case '>':
			r.format = FormatFASTA
		default:
			return fmt.Errorf("%w: input starts with %q, want '@' or '>'", ErrBadRecord, b)
		}
		return r.br.UnreadByte()
	}
}

// readLine returns the next line without its trailing newlines and CRs. The
// line aliases the bufio buffer (or, for a line longer than it, r.long) and
// is valid only until the next read. The cap counts the newline, and an
// unterminated line can never grow past it.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull && len(r.long) <= r.maxRecordBytes() {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) > r.maxRecordBytes() {
		return nil, fmt.Errorf("%w: line longer than %d bytes", ErrRecordTooLarge, r.maxRecordBytes())
	}
	if err != nil && (len(line) == 0 || err != io.EOF) {
		return nil, err
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// headerLine returns the next non-empty line, which must start with marker.
func (r *Reader) headerLine(marker byte) ([]byte, error) {
	for {
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue
		}
		if line[0] != marker {
			return nil, fmt.Errorf("%w: record %d header %q", ErrBadRecord, r.n, line)
		}
		return line, nil
	}
}

// grow returns b with room for need bases: b itself when it has it,
// otherwise b copied to the front of a fresh slab block, or past a block's
// size to an array of its own, which is therefore always larger than a
// block.
func (r *Reader) grow(b []dna.Base, need int) []dna.Base {
	if need <= cap(b) {
		return b
	}
	if need > slabBlock {
		return append(make([]dna.Base, 0, max(need, 2*len(b))), b...)
	}
	r.free = make([]dna.Base, 0, slabBlock)
	return append(r.free, b...)
}

// take finishes a read's bases, which grow placed either at the front of
// the current block — its free tail then moves past them — or in an array
// of their own. The returned slice's capacity ends at its length, so
// appending to one read can never overwrite the next.
func (r *Reader) take(b []dna.Base) []dna.Base {
	if cap(b) == cap(r.free) {
		r.free = r.free[len(b):len(b)]
	}
	return b[:len(b):len(b)]
}

// Next returns the next read, or io.EOF at end of input.
func (r *Reader) Next() (Read, error) {
	if r.format == FormatUnknown {
		if err := r.sniff(); err != nil {
			return Read{}, err
		}
	}
	switch r.format {
	case FormatFASTQ:
		return r.nextFASTQ()
	default:
		return r.nextFASTA()
	}
}

func (r *Reader) nextFASTQ() (Read, error) {
	header, err := r.headerLine('@')
	if err != nil {
		return Read{}, err
	}
	id := string(header[1:])
	seq, err := r.readLine()
	if err != nil {
		if errors.Is(err, ErrRecordTooLarge) {
			return Read{}, fmt.Errorf("record %d: %w", r.n, err)
		}
		return Read{}, fmt.Errorf("%w: record %d truncated after header", ErrBadRecord, r.n)
	}
	bases := dna.EncodeBytes(r.grow(r.free, len(seq)), seq)
	plus, err := r.readLine()
	if err != nil || len(plus) == 0 || plus[0] != '+' {
		if errors.Is(err, ErrRecordTooLarge) {
			return Read{}, fmt.Errorf("record %d: %w", r.n, err)
		}
		return Read{}, fmt.Errorf("%w: record %d missing '+' separator", ErrBadRecord, r.n)
	}
	qual, err := r.readLine()
	if err != nil {
		if errors.Is(err, ErrRecordTooLarge) {
			return Read{}, fmt.Errorf("record %d: %w", r.n, err)
		}
		return Read{}, fmt.Errorf("%w: record %d missing quality line", ErrBadRecord, r.n)
	}
	if len(qual) != len(bases) {
		return Read{}, fmt.Errorf("%w: record %d %q has %d quality values for %d bases",
			ErrBadRecord, r.n, id, len(qual), len(bases))
	}
	r.n++
	return Read{ID: id, Bases: r.take(bases)}, nil
}

func (r *Reader) nextFASTA() (Read, error) {
	header, err := r.headerLine('>')
	if err != nil {
		return Read{}, err
	}
	id := string(header[1:])
	bases := r.free
	for {
		peek, err := r.br.Peek(1)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Read{}, err
		}
		if peek[0] == '>' {
			break
		}
		line, err := r.readLine()
		if err != nil {
			return Read{}, err
		}
		bases = dna.EncodeBytes(r.grow(bases, len(bases)+len(line)), line)
		if len(bases) > r.maxRecordBytes() {
			return Read{}, fmt.Errorf("%w: record %d sequence longer than %d bases",
				ErrRecordTooLarge, r.n, r.maxRecordBytes())
		}
	}
	if len(bases) == 0 {
		return Read{}, fmt.Errorf("%w: record %d has empty sequence", ErrBadRecord, r.n)
	}
	r.n++
	return Read{ID: id, Bases: r.take(bases)}, nil
}

// ReadAll consumes the reader and returns every read.
func ReadAll(r io.Reader) ([]Read, error) {
	fr := NewReader(r)
	var reads []Read
	for {
		rd, err := fr.Next()
		if err == io.EOF {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, rd)
	}
}

// WriteFASTQ writes reads in FASTQ format with a constant quality line,
// suitable for feeding other tools or re-parsing in tests.
func WriteFASTQ(w io.Writer, reads []Read) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, rd := range reads {
		seq := dna.DecodeSeq(rd.Bases)
		qual := strings.Repeat("I", len(seq))
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rd.ID, seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFASTA writes reads in single-line FASTA format.
func WriteFASTA(w io.Writer, reads []Read) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, rd := range reads {
		if _, err := fmt.Fprintf(bw, ">%s\n%s\n", rd.ID, dna.DecodeSeq(rd.Bases)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PartitionReads splits reads into n nearly equal-size groups by position,
// mirroring ParaHash's equal-size input partitioning in Step 1. Every group
// is non-overlapping and their concatenation is the input order.
func PartitionReads(reads []Read, n int) [][]Read {
	if n <= 0 {
		n = 1
	}
	if n > len(reads) && len(reads) > 0 {
		n = len(reads)
	}
	parts := make([][]Read, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(reads) / n
		hi := (i + 1) * len(reads) / n
		parts = append(parts, reads[lo:hi])
	}
	return parts
}

// TotalBases sums the base count across reads.
func TotalBases(reads []Read) int {
	total := 0
	for _, rd := range reads {
		total += len(rd.Bases)
	}
	return total
}

// CountKmers returns the number of k-mers the reads generate:
// sum over reads of max(0, L-K+1) — the N(L-K+1) of the paper for
// uniform-length reads.
func CountKmers(reads []Read, k int) int {
	total := 0
	for _, rd := range reads {
		if n := len(rd.Bases) - k + 1; n > 0 {
			total += n
		}
	}
	return total
}

// sizeOfRead approximates a read's on-disk FASTQ footprint: header + seq +
// '+' + qualities + newlines. Used by partition planners.
func sizeOfRead(rd Read) int { return len(rd.ID) + 2*len(rd.Bases) + 8 }

// ApproxFASTQBytes approximates the reads' on-disk FASTQ footprint, the
// byte volume IO accounting charges for reading raw input.
func ApproxFASTQBytes(reads []Read) int64 {
	var n int64
	for _, rd := range reads {
		n += int64(sizeOfRead(rd))
	}
	return n
}

// PartitionBySize splits reads into groups whose approximate FASTQ byte
// sizes are balanced, for inputs with heterogeneous read lengths.
func PartitionBySize(reads []Read, n int) [][]Read {
	if n <= 1 || len(reads) == 0 {
		return [][]Read{reads}
	}
	total := 0
	for _, rd := range reads {
		total += sizeOfRead(rd)
	}
	target := (total + n - 1) / n
	parts := make([][]Read, 0, n)
	start, acc := 0, 0
	for i, rd := range reads {
		acc += sizeOfRead(rd)
		if acc >= target && len(parts) < n-1 {
			parts = append(parts, reads[start:i+1])
			start, acc = i+1, 0
		}
	}
	parts = append(parts, reads[start:])
	return parts
}

// Validate sanity-checks a parsed read set against construction parameters
// and returns a descriptive error for unusable inputs.
func Validate(reads []Read, k int) error {
	if k < 2 || k > dna.MaxK {
		return fmt.Errorf("fastq: k=%d out of range [2,%d]", k, dna.MaxK)
	}
	usable := 0
	for _, rd := range reads {
		if len(rd.Bases) >= k {
			usable++
		}
	}
	if usable == 0 {
		return fmt.Errorf("fastq: no read is at least k=%d bases long", k)
	}
	return nil
}

// SprintStats renders a short human-readable summary of a read set.
func SprintStats(reads []Read, k int) string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "reads=%d bases=%d kmers(K=%d)=%d",
		len(reads), TotalBases(reads), k, CountKmers(reads, k))
	return sb.String()
}
