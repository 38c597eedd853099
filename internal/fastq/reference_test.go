package fastq

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"parahash/internal/dna"
)

// refReader is the line reader Reader replaced — every line copied into a
// string, bases decoded into an array per read — kept as the differential
// oracle, with the quality-length check the copy-free reader added.
type refReader struct {
	br     *bufio.Reader
	format Format
	n      int
	max    int
}

func newRefReader(r io.Reader, maxRecordBytes int) *refReader {
	if maxRecordBytes <= 0 {
		maxRecordBytes = DefaultMaxRecordBytes
	}
	return &refReader{br: bufio.NewReaderSize(r, 1<<16), max: maxRecordBytes}
}

func (r *refReader) readLine() (string, error) {
	var buf []byte
	for {
		frag, err := r.br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > r.max {
			return "", fmt.Errorf("%w: line longer than %d bytes", ErrRecordTooLarge, r.max)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && (len(buf) == 0 || err != io.EOF) {
			return "", err
		}
		return strings.TrimRight(string(buf), "\r\n"), nil
	}
}

func (r *refReader) Next() (Read, error) {
	if r.format == FormatUnknown {
		for r.format == FormatUnknown {
			b, err := r.br.ReadByte()
			if err != nil {
				return Read{}, err
			}
			switch b {
			case '\n', '\r':
				continue
			case '@':
				r.format = FormatFASTQ
			case '>':
				r.format = FormatFASTA
			default:
				return Read{}, fmt.Errorf("%w: input starts with %q, want '@' or '>'", ErrBadRecord, b)
			}
		}
		if err := r.br.UnreadByte(); err != nil {
			return Read{}, err
		}
	}
	marker := "@"
	if r.format == FormatFASTA {
		marker = ">"
	}
	header, err := r.readLine()
	if err != nil {
		return Read{}, err
	}
	for header == "" {
		if header, err = r.readLine(); err != nil {
			return Read{}, err
		}
	}
	if !strings.HasPrefix(header, marker) {
		return Read{}, fmt.Errorf("%w: record %d header %q", ErrBadRecord, r.n, header)
	}
	if r.format == FormatFASTA {
		return r.fastaBody(header)
	}
	tooLarge := func(err error) error { return fmt.Errorf("record %d: %w", r.n, err) }
	seq, err := r.readLine()
	if err != nil {
		if errors.Is(err, ErrRecordTooLarge) {
			return Read{}, tooLarge(err)
		}
		return Read{}, fmt.Errorf("%w: record %d truncated after header", ErrBadRecord, r.n)
	}
	plus, err := r.readLine()
	if err != nil || !strings.HasPrefix(plus, "+") {
		if errors.Is(err, ErrRecordTooLarge) {
			return Read{}, tooLarge(err)
		}
		return Read{}, fmt.Errorf("%w: record %d missing '+' separator", ErrBadRecord, r.n)
	}
	qual, err := r.readLine()
	if err != nil {
		if errors.Is(err, ErrRecordTooLarge) {
			return Read{}, tooLarge(err)
		}
		return Read{}, fmt.Errorf("%w: record %d missing quality line", ErrBadRecord, r.n)
	}
	if len(qual) != len(seq) {
		return Read{}, fmt.Errorf("%w: record %d %q has %d quality values for %d bases",
			ErrBadRecord, r.n, header[1:], len(qual), len(seq))
	}
	r.n++
	return Read{ID: header[1:], Bases: dna.EncodeSeq(nil, seq)}, nil
}

func (r *refReader) fastaBody(header string) (Read, error) {
	var bases []dna.Base
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
		bases = append(bases, dna.EncodeSeq(nil, line)...)
		if len(bases) > r.max {
			return Read{}, fmt.Errorf("%w: record %d sequence longer than %d bases",
				ErrRecordTooLarge, r.n, r.max)
		}
	}
	if len(bases) == 0 {
		return Read{}, fmt.Errorf("%w: record %d has empty sequence", ErrBadRecord, r.n)
	}
	r.n++
	return Read{ID: header[1:], Bases: bases}, nil
}

// readAllWith drains next, returning every read before the first error and
// that error (io.EOF at a clean end).
func readAllWith(next func() (Read, error)) ([]Read, error) {
	var reads []Read
	for {
		rd, err := next()
		if err != nil {
			return reads, err
		}
		reads = append(reads, rd)
	}
}

// checkMatchesReference parses data with both readers under the same cap
// and requires the same reads, then the same error. Reads are compared only
// once all of them are parsed, so a read whose slab space a later one
// overwrote shows up as a mismatch.
func checkMatchesReference(t *testing.T, data []byte, maxRecordBytes int) {
	t.Helper()
	fr := NewReader(bytes.NewReader(data))
	fr.MaxRecordBytes = maxRecordBytes
	got, gotErr := readAllWith(fr.Next)
	want, wantErr := readAllWith(newRefReader(bytes.NewReader(data), maxRecordBytes).Next)
	if len(got) != len(want) {
		t.Fatalf("%d reads, reference %d (errors %v / %v)", len(got), len(want), gotErr, wantErr)
	}
	for i := range got {
		if got[i].ID != want[i].ID || !bytes.Equal(basesBytes(got[i].Bases), basesBytes(want[i].Bases)) {
			t.Fatalf("read %d: %q/%d bases, reference %q/%d bases", i,
				got[i].ID, len(got[i].Bases), want[i].ID, len(want[i].Bases))
		}
		if cap(got[i].Bases) != len(got[i].Bases) {
			t.Fatalf("read %d: capacity %d past its %d bases", i, cap(got[i].Bases), len(got[i].Bases))
		}
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	for _, class := range []error{io.EOF, ErrBadRecord, ErrRecordTooLarge} {
		if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
			t.Fatalf("error %v, reference %v: not the same class", gotErr, wantErr)
		}
	}
}

func basesBytes(b []dna.Base) []byte {
	out := make([]byte, len(b))
	for i, x := range b {
		out[i] = byte(x)
	}
	return out
}

// refSeed is a differential-check input: head followed by n copies of
// body, so a small fuzzed input can still make lines longer than the 64 KiB
// bufio buffer and records that outgrow a slab block.
type refSeed struct {
	head, body string
	n          int
}

func (s refSeed) input() []byte {
	return []byte(s.head + strings.Repeat(s.body, s.n))
}

// referenceSeeds cover CRLF, blank lines, no final newline, lines longer
// than the bufio buffer, quality lines of the wrong length, and multi-line
// FASTA records that outgrow a slab block or are longer than one.
func referenceSeeds() []refSeed {
	acgt := strings.Repeat("ACGTNacgtn", 6)
	return []refSeed{
		{sampleFASTQ, "", 0},
		{sampleFASTA, "", 0},
		{"", "@r\r\n" + acgt + "\r\n+\r\n" + strings.Repeat("I", 60) + "\r\n\n", 1200},
		{"", ">chr\n" + strings.Repeat(acgt+"\n", 25), 60},
		{">big\n", acgt + "\n", 2000},
		{">one\n", acgt, 1200},
		{"@long\n", acgt, 1200},
		{"@r1\n" + strings.Repeat("ACGT", 8) + "\n+\nII\n", "", 0},
		{"@r1\nACGT\n+\nIIIII\n", "", 0},
		{"\n\n@r\nACGT\r\r\n+\nIIII\r\n\n\n@s\n\n+\n\n", "", 0},
		{"", "@r\nACGT\n+\nIIII\n", 3},
		{"@r\nACGT\n+\n", "", 0},
		{"@r\nACGT\nIIII\n", "", 0},
		{">s\n\n>t\nA\n", "", 0},
		{"x\n", "", 0},
	}
}

// FuzzReaderMatchesReference holds the copy-free reader to its reference
// on any input and any MaxRecordBytes: the same IDs and bases, then the
// same error.
func FuzzReaderMatchesReference(f *testing.F) {
	for _, seed := range referenceSeeds() {
		for _, limit := range []int{0, 1, 7, 64, 100, 1 << 16, 1<<16 + 3, 90_000} {
			f.Add(seed.head, seed.body, uint16(seed.n), limit)
		}
	}
	f.Fuzz(func(t *testing.T, head, body string, n uint16, maxRecordBytes int) {
		seed := refSeed{head, body, int(n)}
		if len(body)*seed.n > 1<<20 {
			seed.n = (1 << 20) / len(body)
		}
		checkMatchesReference(t, seed.input(), maxRecordBytes)
	})
}

func TestQualityLengthMustMatchSequence(t *testing.T) {
	for _, qual := range []string{"II", strings.Repeat("I", 33), ""} {
		in := "@r0\nACGT\n+\nIIII\n@r1\n" + strings.Repeat("ACGT", 8) + "\n+\n" + qual + "\n"
		reads, err := ReadAll(strings.NewReader(in))
		if !errors.Is(err, ErrBadRecord) || reads != nil {
			t.Fatalf("quality of %d for 32 bases: %d reads, %v; want ErrBadRecord", len(qual), len(reads), err)
		}
		for _, part := range []string{"record 1", `"r1"`, fmt.Sprintf(" %d quality values", len(qual)), "32 bases"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("error %q does not name %q", err, part)
			}
		}
	}
}

// TestWarmReaderAllocatesAboutOneStringPerRecord holds the copy-free parse
// to its budget: the ID string, plus a slab block every few hundred reads.
func TestWarmReaderAllocatesAboutOneStringPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var in strings.Builder
	for i := 0; i < 3000; i++ {
		s := make([]byte, 100+rng.Intn(51))
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		fmt.Fprintf(&in, "@read%d/1\n%s\n+\n%s\n", i, s, strings.Repeat("I", len(s)))
	}
	r := NewReader(strings.NewReader(in.String()))
	for i := 0; i < 100; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.1 {
		t.Errorf("warm Reader makes %.3f allocations per record, want <= 1.1", allocs)
	}
}
