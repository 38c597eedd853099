package msp

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"parahash/internal/dna"
)

// This file holds the one definition of how an encoded superkmer stream is
// walked — record header, record body, integrity footer — and the
// whole-partition decoder built on it. Decoder.Next (encode.go) walks a
// stream with the same helpers, so the two decoders accept and reject
// exactly the same bytes with the same typed errors.

// footerMarker starts the integrity footer; no record can (lengths are >= 1).
const footerMarker = 0x00

// maxRecordBases bounds a record's declared base count; anything larger is
// damage, not data.
const maxRecordBases = 1 << 30

var (
	errNoFooter     = fmt.Errorf("%w: stream ends without integrity footer", ErrCorruptPartition)
	errTrailingData = fmt.Errorf("%w: trailing data after integrity footer", ErrCorruptPartition)
)

// recordHeader parses the length varint at the head of b, which must start
// at a record boundary and extend to the end of the stream or at least
// binary.MaxVarintLen64 bytes. It returns the record's base count and the
// bytes of b it consumed, also when it fails.
func recordHeader(b []byte) (n, width int, err error) {
	var x uint64
	var shift uint
	for i, c := range b {
		last := i == binary.MaxVarintLen64-1
		if c < 0x80 {
			if last && c > 1 {
				return 0, i + 1, fmt.Errorf("%w: record length varint overflows", ErrCorrupt)
			}
			x |= uint64(c) << shift
			if x == 0 || x > maxRecordBases {
				return 0, i + 1, fmt.Errorf("%w: implausible superkmer length %d", ErrCorrupt, x)
			}
			return int(x), i + 1, nil
		}
		if last {
			return 0, i + 1, fmt.Errorf("%w: record length varint overflows", ErrCorrupt)
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, len(b), fmt.Errorf("%w: truncated record length", ErrCorrupt)
}

// bodySize is the byte size of an n-base record after its length varint:
// the flags byte plus the packed bases.
func bodySize(n int) int { return 1 + (n+3)/4 }

// unpacked maps a packed byte to its four bases, first base in the two most
// significant bits.
var unpacked = func() (t [256][4]dna.Base) {
	for b := range t {
		for j := range t[b] {
			t[b][j] = dna.Base(b >> (6 - 2*uint(j)) & 3)
		}
	}
	return t
}()

// unpackRecord expands a record body (flags byte, then packed bases) into a
// superkmer whose bases are written to dst; len(dst) is the record's base
// count and len(body) its bodySize.
func unpackRecord(dst []dna.Base, body []byte) Superkmer {
	flags, packed := body[0], body[1:]
	full := len(dst) / 4
	for i := 0; i < full; i++ {
		*(*[4]dna.Base)(dst[i*4:]) = unpacked[packed[i]]
	}
	for j := full * 4; j < len(dst); j++ {
		dst[j] = unpacked[packed[full]][j&3]
	}
	sk := Superkmer{Bases: dst}
	if flags&1 != 0 {
		sk.HasLeft = true
		sk.Left = dna.Base(flags >> 2 & 3)
	}
	if flags&2 != 0 {
		sk.HasRight = true
		sk.Right = dna.Base(flags >> 4 & 3)
	}
	return sk
}

// checkFooter verifies the bytes after a footer marker against crc, the
// IEEE CRC32 of every record byte before the marker: exactly the four CRC
// bytes must follow, and nothing after them. It returns the bytes of rest
// the footer accounts for.
func checkFooter(crc uint32, rest []byte) (int, error) {
	if len(rest) < FooterSize-1 {
		return 0, fmt.Errorf("%w: truncated integrity footer", ErrCorruptPartition)
	}
	if want := binary.LittleEndian.Uint32(rest); want != crc {
		return FooterSize - 1, fmt.Errorf("%w: crc 0x%08x, footer says 0x%08x", ErrCorruptPartition, crc, want)
	}
	if len(rest) > FooterSize-1 {
		return FooterSize - 1, errTrailingData
	}
	return FooterSize - 1, nil
}

// DecodedPartition is one decoded superkmer partition.
type DecodedPartition struct {
	// Superkmers holds the records in file order. Their Bases share one
	// backing array; Minimizer and Part are not stored on disk and are zero.
	Superkmers []Superkmer
	// Bases is the total base count across the records.
	Bases int64
	// Bytes is the encoded size consumed: the whole image on success, the
	// bytes walked before the damage on failure (what Decoder.BytesRead
	// reports for the same stream).
	Bytes int64

	// arena backs the Superkmers' Bases; Decode reuses it.
	arena []dna.Base
}

// NumKmers returns the number of k-mers the partition's superkmers contain:
// the sum of Superkmer.NumKmers without another walk over the records.
func (p DecodedPartition) NumKmers(k int) int64 {
	return p.Bases - int64(len(p.Superkmers))*int64(k-1)
}

// DecodePartition decodes a whole partition image written by Encoder.Close.
// The integrity footer is required, as with Decoder.RequireFooter: the
// records are structure-checked in one walk, their CRC is verified in one
// pass, and only then are they unpacked — into a single bases array and an
// exactly sized record slice, so a partition costs two allocations however
// many records it holds. Damage is reported with the sentinels Decoder.Next
// uses (ErrCorrupt, ErrCorruptPartition).
func DecodePartition(data []byte) (DecodedPartition, error) {
	var p DecodedPartition
	err := p.Decode(data)
	return p, err
}

// Decode is DecodePartition into p: the record slice and bases array p
// holds from an earlier Decode are overwritten and, when large enough,
// reused, so a caller that decodes one partition after another into the same
// DecodedPartition allocates only for a partition larger than any before it.
// The caller must be done with the records p held. After a failure p holds
// no records.
func (p *DecodedPartition) Decode(data []byte) error {
	records, bases, walked, err := checkPartition(data)
	p.Superkmers, p.Bases, p.Bytes = p.Superkmers[:0], 0, int64(walked)
	if err != nil {
		return err
	}
	// Grown a quarter past what this partition needs: the next is about the
	// same size, and as often larger as smaller.
	if cap(p.Superkmers) < records {
		p.Superkmers = make([]Superkmer, records+records/4)
	}
	if cap(p.arena) < bases {
		p.arena = make([]dna.Base, bases+bases/4)
	}
	p.Superkmers, p.Bases = p.Superkmers[:records], int64(bases)
	arena := p.arena[:bases]
	pos := 0
	for i := range p.Superkmers {
		n, width, _ := recordHeader(data[pos:])
		pos += width
		p.Superkmers[i] = unpackRecord(arena[:n:n], data[pos:pos+bodySize(n)])
		arena = arena[n:]
		pos += bodySize(n)
	}
	return nil
}

// checkPartition walks a partition image's structure and verifies its
// footer: the record and base counts when it is sound, and either way the
// bytes walked — the whole image, or those before the damage.
func checkPartition(data []byte) (records, bases, walked int, err error) {
	pos := 0
	for {
		if pos == len(data) {
			return 0, 0, pos, errNoFooter
		}
		if data[pos] == footerMarker {
			n, err := checkFooter(crc32.ChecksumIEEE(data[:pos]), data[pos+1:])
			return records, bases, pos + 1 + n, err
		}
		n, width, err := recordHeader(data[pos:])
		pos += width
		if err != nil {
			return 0, 0, pos, err
		}
		if len(data)-pos < bodySize(n) {
			return 0, 0, pos, fmt.Errorf("%w: truncated record (%d bases declared)", ErrCorrupt, n)
		}
		pos += bodySize(n)
		records++
		bases += n
	}
}
