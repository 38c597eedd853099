package msp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"parahash/internal/dna"
)

// refEncoder is the encoder Encoder replaced — a bufio.Writer, a branch per
// base, a CRC32 per record — kept as the differential oracle.
type refEncoder struct {
	w      *bufio.Writer
	crc    uint32
	closed bool
	Bytes  int64
}

func newRefEncoder(w io.Writer) *refEncoder {
	return &refEncoder{w: bufio.NewWriterSize(w, 1<<15)}
}

func (e *refEncoder) Encode(sk Superkmer) error {
	n := len(sk.Bases)
	var tmp [binary.MaxVarintLen64]byte
	buf := append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(n))]...)
	var flags byte
	if sk.HasLeft {
		flags |= 1 | byte(sk.Left&3)<<2
	}
	if sk.HasRight {
		flags |= 2 | byte(sk.Right&3)<<4
	}
	buf = append(buf, flags)
	var acc byte
	for i, b := range sk.Bases {
		acc = acc<<2 | byte(b&3)
		if i%4 == 3 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if n%4 != 0 {
		acc <<= 2 * (4 - uint(n%4))
		buf = append(buf, acc)
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, buf)
	e.Bytes += int64(len(buf))
	_, err := e.w.Write(buf)
	return err
}

func (e *refEncoder) Flush() error  { return e.w.Flush() }
func (e *refEncoder) Sum32() uint32 { return e.crc }
func (e *refEncoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var footer [FooterSize]byte
	binary.LittleEndian.PutUint32(footer[1:], e.crc)
	e.Bytes += FooterSize
	if _, err := e.w.Write(footer[:]); err != nil {
		return err
	}
	return e.w.Flush()
}

var errSinkFull = errors.New("sink full")

// limitSink fails the one write that takes it past limit bytes, keeping the
// part that fitted, and accepts every write after it, so only an encoder
// whose error is sticky leaves it holding a prefix of the stream. A
// negative limit never fails.
type limitSink struct {
	bytes.Buffer
	limit  int
	failed bool
}

func (s *limitSink) Write(p []byte) (int, error) {
	if s.limit < 0 || s.failed || s.Len()+len(p) <= s.limit {
		return s.Buffer.Write(p)
	}
	s.failed = true
	n := max(s.limit-s.Len(), 0)
	s.Buffer.Write(p[:n])
	return n, errSinkFull
}

// encoderRecords makes count superkmers of 1 … maxLen bases, every length
// mod 4, with a record longer than the encoder's buffer now and then.
func encoderRecords(seed int64, count, maxLen int) []Superkmer {
	rng := rand.New(rand.NewSource(seed))
	sks := make([]Superkmer, count)
	for i := range sks {
		n := 1 + rng.Intn(max(maxLen, 1))
		if rng.Intn(64) == 0 {
			n = encoderBuffer*4 + rng.Intn(encoderBuffer)
		}
		sks[i] = Superkmer{Bases: randomRead(rng, n), HasLeft: rng.Intn(2) == 0, HasRight: rng.Intn(2) == 0,
			Left: dna.Base(rng.Intn(4)), Right: dna.Base(rng.Intn(4))}
	}
	return sks
}

// checkEncoderMatchesReference encodes sks with Encoder and with the
// reference. After every record, Bytes and Sum32 must agree; at the records
// flushMask picks, both flush and — while the sinks hold — must have
// written the same bytes. A sink that fails after failAfter bytes must fail
// both, leave Encoder's error sticky, and hold a prefix of the clean
// stream.
func checkEncoderMatchesReference(t *testing.T, sks []Superkmer, flushMask uint8, failAfter int) {
	t.Helper()
	var clean bytes.Buffer
	cleanRef := newRefEncoder(&clean)
	for _, sk := range sks {
		cleanRef.Encode(sk)
	}
	if err := cleanRef.Close(); err != nil {
		t.Fatal(err)
	}

	gotSink, wantSink := &limitSink{limit: failAfter}, &limitSink{limit: failAfter}
	enc, ref := NewEncoder(gotSink), newRefEncoder(wantSink)
	var encErr, refErr error
	step := func(what string, i int, e1, e2 error) {
		t.Helper()
		if encErr != nil && e1 == nil {
			t.Fatalf("%s %d: error %v not sticky", what, i, encErr)
		}
		encErr, refErr = errors.Join(encErr, e1), errors.Join(refErr, e2)
		if enc.Bytes != ref.Bytes || enc.Sum32() != ref.Sum32() {
			t.Fatalf("%s %d: Bytes %d / Sum32 %#x, reference %d / %#x",
				what, i, enc.Bytes, enc.Sum32(), ref.Bytes, ref.Sum32())
		}
	}
	for i, sk := range sks {
		step("record", i, enc.Encode(sk), ref.Encode(sk))
		if flushMask>>(i%8)&1 != 0 {
			step("flush", i, enc.Flush(), ref.Flush())
			if encErr == nil && refErr == nil && !bytes.Equal(gotSink.Bytes(), wantSink.Bytes()) {
				t.Fatalf("flush %d: %d bytes written, reference %d", i, gotSink.Len(), wantSink.Len())
			}
		}
	}
	step("close", len(sks), enc.Close(), ref.Close())
	if (encErr == nil) != (refErr == nil) {
		t.Fatalf("error %v, reference %v", encErr, refErr)
	}
	if encErr == nil && !bytes.Equal(gotSink.Bytes(), clean.Bytes()) {
		t.Fatalf("stream of %d bytes, reference %d", gotSink.Len(), clean.Len())
	}
	if !bytes.HasPrefix(clean.Bytes(), gotSink.Bytes()) {
		t.Fatalf("failed stream is not a prefix of the clean one")
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("second Close: %v, want the no-op's nil", err)
	}
}

// FuzzEncoderMatchesReference holds Encoder to the reference for any record
// mix, flush schedule and failing sink.
func FuzzEncoderMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 3; seed++ {
		for _, failAfter := range []int32{-1, 0, 3, 1 << 15, 100_000} {
			for _, flushMask := range []uint8{0, 0x81} {
				f.Add(seed, uint16(400), uint16(300), flushMask, failAfter)
			}
		}
	}
	f.Add(int64(4), uint16(40), uint16(4), uint8(0x55), int32(-1))
	f.Add(int64(5), uint16(9), uint16(1), uint8(0xff), int32(0))
	f.Fuzz(func(t *testing.T, seed int64, count, maxLen uint16, flushMask uint8, failAfter int32) {
		sks := encoderRecords(seed, int(count%600), int(maxLen%301))
		checkEncoderMatchesReference(t, sks, flushMask, int(failAfter))
	})
}
