package msp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"parahash/internal/dna"
)

// The on-disk superkmer record format (all values little-endian):
//
//	uvarint  n      — number of bases in the superkmer (n >= K)
//	byte     flags  — bit0 HasLeft, bit1 HasRight,
//	                  bits 2-3 Left base, bits 4-5 Right base
//	bytes    packed — ceil(n/4) bytes of 2-bit bases, 4 per byte, the
//	                  first base in the two most significant bits
//
// This is the paper's encoded output: compared to one character per base it
// cuts partition storage to roughly 1/4 (§III-B), which the encoding
// ablation benchmark verifies.
//
// A stream finalised with Encoder.Close carries an integrity footer:
//
//	byte     0x00   — footer marker (impossible as a record start, since
//	                  record lengths are always >= 1)
//	uint32   crc    — IEEE CRC32 of every record byte before the marker
//
// The Decoder verifies the footer when present and surfaces a mismatch as
// ErrCorruptPartition, which the resilient pipeline treats as retryable.
// Streams without a footer (written by Flush alone) still decode, so
// pre-footer partition files remain readable; set Decoder.RequireFooter to
// reject them, turning silent truncation at a record boundary into an
// error.

// ErrCorrupt reports a structurally invalid superkmer stream.
var ErrCorrupt = errors.New("msp: corrupt superkmer stream")

// ErrCorruptPartition reports a superkmer stream that failed its end-to-end
// integrity check (CRC mismatch, damaged footer, or a missing footer when
// one is required). It is distinct from ErrCorrupt so callers can tell
// bit-level damage from structural damage; both are retryable faults for
// the resilient pipeline.
var ErrCorruptPartition = errors.New("msp: partition failed integrity check")

// EncodedSize returns the exact record size in bytes for a superkmer with n
// bases (varint + flags + packed payload). The per-stream footer written by
// Encoder.Close (FooterSize bytes) is not included.
func EncodedSize(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(n)) + bodySize(n)
}

// FooterSize is the byte size of the integrity footer Close appends.
const FooterSize = 5

// encoderBuffer is the size of the block an Encoder gathers records into
// before it writes them out.
const encoderBuffer = 1 << 15

// Encoder writes 2-bit encoded superkmer records to a stream. Records are
// gathered into one buffer and written, and checksummed, a block at a time:
// a CRC32 over 32 KiB takes the table-free CLMUL path, one over a record of
// a few bytes does not. A write error is sticky: every later call returns
// it.
type Encoder struct {
	w      io.Writer
	buf    []byte // records not yet written
	crc    uint32 // CRC32 of the records before buf
	err    error
	closed bool
	// Bytes counts the encoded bytes written, including the Close footer,
	// for IO accounting.
	Bytes int64
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, encoderBuffer)}
}

// Encode appends one superkmer record.
func (e *Encoder) Encode(sk Superkmer) error {
	need := binary.MaxVarintLen64 + bodySize(len(sk.Bases))
	if len(e.buf)+need > cap(e.buf) {
		e.Flush()
	}
	if need > cap(e.buf) {
		// Larger than the whole buffer: written on its own, as bufio would.
		rec := appendRecord(make([]byte, 0, need), sk)
		e.Bytes += int64(len(rec))
		e.crc = crc32.Update(e.crc, crc32.IEEETable, rec)
		e.write(rec)
		return e.err
	}
	n := len(e.buf)
	e.buf = appendRecord(e.buf, sk)
	e.Bytes += int64(len(e.buf) - n)
	return e.err
}

// appendRecord appends sk's record to buf, which has room for it.
func appendRecord(buf []byte, sk Superkmer) []byte {
	bases := sk.Bases
	buf = binary.AppendUvarint(buf, uint64(len(bases)))
	var flags byte
	if sk.HasLeft {
		flags |= 1 | byte(sk.Left&3)<<2
	}
	if sk.HasRight {
		flags |= 2 | byte(sk.Right&3)<<4
	}
	buf = append(buf, flags)
	n := len(buf)
	buf = buf[:n+(len(bases)+3)/4]
	packed := buf[n:]
	full := len(bases) / 4
	for i := range packed[:full] {
		// Four bases loaded as one word, base j in byte j: the multiply
		// moves base j to bits 30-2j, and the partial products elsewhere
		// neither overlap nor carry into those bits.
		b := bases[4*i : 4*i+4 : 4*i+4]
		q := (uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24) & 0x03030303
		packed[i] = byte(q * (1<<30 | 1<<20 | 1<<10 | 1) >> 24)
	}
	if tail := bases[4*full:]; len(tail) > 0 {
		var acc byte
		for j, b := range tail {
			acc |= byte(b&3) << (6 - 2*j)
		}
		packed[full] = acc
	}
	return buf
}

// write hands p to the underlying writer unless an earlier write failed.
func (e *Encoder) write(p []byte) {
	if e.err != nil || len(p) == 0 {
		return
	}
	n, err := e.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	e.err = err
}

// Flush writes the buffered records to the underlying writer without
// finalising the stream.
func (e *Encoder) Flush() error {
	e.crc = e.Sum32()
	e.write(e.buf)
	e.buf = e.buf[:0]
	return e.err
}

// Sum32 returns the running IEEE CRC32 of the record bytes encoded so far —
// after Close, exactly the checksum the integrity footer carries. The build
// manifest records it so a resumed build can verify a partition file
// without trusting the file's own footer alone.
func (e *Encoder) Sum32() uint32 { return crc32.Update(e.crc, crc32.IEEETable, e.buf) }

// Close writes the integrity footer — marker byte plus the CRC32 of all
// record bytes — behind the buffered records and releases the buffer. No
// records may be encoded after Close; closing twice is a no-op.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.crc = e.Sum32()
	var footer [FooterSize]byte
	binary.LittleEndian.PutUint32(footer[1:], e.crc)
	e.Bytes += FooterSize
	e.write(append(e.buf, footer[:]...))
	e.buf = nil
	return e.err
}

// Decoder streams superkmer records produced by Encoder.
type Decoder struct {
	// RequireFooter, when set, makes a stream that ends without a verified
	// integrity footer fail with ErrCorruptPartition instead of returning
	// a clean io.EOF. Enable it for streams known to be written by
	// Encoder.Close so that truncation at a record boundary is detected.
	RequireFooter bool

	r       *bufio.Reader
	bases   []dna.Base
	scratch []byte
	crc     uint32
	bytes   int64
	done    bool // footer verified or terminal error delivered
}

// BytesRead reports the encoded bytes consumed so far (records plus any
// verified footer), for IO accounting symmetrical with Encoder.Bytes.
func (d *Decoder) BytesRead() int64 { return d.bytes }

// Sum32 returns the running IEEE CRC32 of the record bytes decoded so far.
// After a stream ends cleanly with a verified footer it equals the
// encoder's Sum32, letting resume verification compare the decoded stream
// against an independently recorded checksum.
func (d *Decoder) Sum32() uint32 { return d.crc }

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 1<<15)}
}

// Next decodes the next record. The returned superkmer's Bases slice is
// owned by the Decoder and overwritten by the next call; copy it to retain.
// The Minimizer field is not stored on disk and is returned as zero.
// It returns io.EOF at a clean end of stream — after a verified footer, or
// at a record boundary for footerless streams unless RequireFooter is set.
// The record structure itself is walked by the helpers DecodePartition
// shares (decode.go), so both decoders accept and reject the same bytes.
func (d *Decoder) Next() (Superkmer, error) {
	if d.done {
		return Superkmer{}, io.EOF
	}
	// A short peek means the stream ends (or fails) inside these bytes.
	hdr, err := d.r.Peek(binary.MaxVarintLen64)
	if len(hdr) == 0 {
		if err != io.EOF {
			return Superkmer{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		d.done = true
		if d.RequireFooter {
			return Superkmer{}, errNoFooter
		}
		return Superkmer{}, io.EOF
	}
	if hdr[0] == footerMarker {
		d.done = true
		d.bytes++
		d.r.Discard(1)
		// One byte past the CRC is enough to see trailing data; a stream
		// that ends after the CRC with anything but EOF is not a clean end.
		rest, err := d.r.Peek(FooterSize)
		n, ferr := checkFooter(d.crc, rest)
		d.bytes += int64(n)
		if ferr == nil && err != io.EOF {
			ferr = errTrailingData
		}
		if ferr != nil {
			return Superkmer{}, ferr
		}
		return Superkmer{}, io.EOF
	}

	n, width, err := recordHeader(hdr)
	d.bytes += int64(width)
	if err != nil {
		return Superkmer{}, err
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, hdr[:width])
	d.r.Discard(width)
	payload := bodySize(n)
	if cap(d.scratch) < payload {
		d.scratch = make([]byte, payload)
	}
	body := d.scratch[:payload]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return Superkmer{}, fmt.Errorf("%w: truncated record (%d bases declared): %v", ErrCorrupt, n, err)
	}
	d.bytes += int64(payload)
	d.crc = crc32.Update(d.crc, crc32.IEEETable, body)
	if cap(d.bases) < n {
		d.bases = make([]dna.Base, n)
	}
	return unpackRecord(d.bases[:n], body), nil
}

// PlainEncodedSize returns the record size of the non-encoded (one character
// per base) representation used by the original MSP implementation, for the
// encoding-ablation comparison: bases + flags + separator.
func PlainEncodedSize(n int) int { return n + 4 }
