package msp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"

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

// DecodedPartition is one decoded superkmer partition, identical records
// folded together.
type DecodedPartition struct {
	// Superkmers holds the partition's distinct records in order of first
	// appearance. A record whose encoded bytes repeat an earlier one's is not
	// listed again: it bumps that superkmer's Dup. Their Bases share one
	// backing array; Minimizer and Part are not stored on disk and are zero.
	Superkmers []Superkmer
	// Records is the number of records in the image, folded ones included:
	// the sum of Weight over Superkmers.
	Records int64
	// Bases is the total base count across the records, folded ones included.
	Bases int64
	// Bytes is the encoded size consumed: the whole image on success, the
	// bytes walked before the damage on failure (what Decoder.BytesRead
	// reports for the same stream).
	Bytes int64

	// arena backs the Superkmers' Bases; fold indexes them by their encoded
	// bytes, and firsts holds where each one's first record starts in the
	// image. Decode reuses all three.
	arena  []dna.Base
	fold   []foldSlot
	firsts []int
}

// foldSlot is one slot of the decoder's open-addressed record index: the
// hash of a distinct record's encoded bytes and 1 + its index in
// Superkmers (0 marks an empty slot).
type foldSlot struct {
	hash  uint64
	entry int
}

// foldSeed keys the record hash. Slot order never reaches the output, so a
// per-process seed costs no determinism.
var foldSeed = maphash.MakeSeed()

// maxDup is the largest Superkmer.Dup the decoder builds, so that Weight
// fits a uint32; a variable so tests can reach the overflow path.
var maxDup uint32 = math.MaxUint32 - 1

// NumKmers returns the number of k-mers the partition's records contain,
// folded ones included: the sum of Superkmer.NumKmers × Weight without
// another walk over the records.
func (p DecodedPartition) NumKmers(k int) int64 {
	return p.Bases - p.Records*int64(k-1)
}

// DecodePartition decodes a whole partition image written by Encoder.Close.
// The integrity footer is required, as with Decoder.RequireFooter: the
// records are structure-checked in one walk, their CRC is verified in one
// pass, and only then are they folded and unpacked — into a single bases
// array and a record slice sized from the walk, so a partition costs a fixed
// number of allocations however many records it holds. Damage is reported
// with the sentinels Decoder.Next uses (ErrCorrupt, ErrCorruptPartition).
func DecodePartition(data []byte) (DecodedPartition, error) {
	var p DecodedPartition
	err := p.Decode(data)
	return p, err
}

// Decode is DecodePartition into p: the record slice, bases array and fold
// index p holds from an earlier Decode are overwritten and, when large
// enough, reused, so a caller that decodes one partition after another into
// the same DecodedPartition allocates only for a partition larger than any
// before it. The caller must be done with the records p held. After a
// failure p holds no records.
//
// Records are folded on their encoded bytes — length, flags byte and packed
// bases — which are exactly what ForEachKmerEdge reads: the bases and the
// extension flags. Only the first copy of a record is unpacked; each later
// copy bumps its Dup, until Dup reaches its cap and a new copy starts over.
func (p *DecodedPartition) Decode(data []byte) error {
	records, bases, walked, err := checkPartition(data)
	p.Superkmers, p.Records, p.Bases, p.Bytes = p.Superkmers[:0], 0, 0, int64(walked)
	if err != nil {
		return err
	}
	// Grown a quarter past what this partition needs: the next is about the
	// same size, and as often larger as smaller.
	if cap(p.Superkmers) < records {
		p.Superkmers = make([]Superkmer, 0, records+records/4)
	}
	if cap(p.firsts) < records {
		p.firsts = make([]int, 0, records+records/4)
	}
	if cap(p.arena) < bases {
		p.arena = make([]dna.Base, bases+bases/4)
	}
	// A power of two at least twice the records, so the index is at most
	// half full and a probe walk stays short.
	slots := 8
	for slots < 2*records {
		slots *= 2
	}
	if cap(p.fold) < slots {
		p.fold = make([]foldSlot, slots)
	}
	p.fold = p.fold[:slots]
	clear(p.fold)
	p.firsts = p.firsts[:0]

	p.Records, p.Bases = int64(records), int64(bases)
	arena := p.arena
	pos := 0
	for range records {
		n, width, _ := recordHeader(data[pos:])
		rec := data[pos : pos+width+bodySize(n)]
		h := maphash.Bytes(foldSeed, rec)
		if s := p.slotOf(h, rec, data); s.entry != 0 && p.Superkmers[s.entry-1].Dup < maxDup {
			p.Superkmers[s.entry-1].Dup++
		} else {
			s.hash, s.entry = h, len(p.Superkmers)+1
			p.Superkmers = append(p.Superkmers, unpackRecord(arena[:n:n], rec[width:]))
			p.firsts = append(p.firsts, pos)
			arena = arena[n:]
		}
		pos += len(rec)
	}
	return nil
}

// slotOf returns the fold index slot for rec, a record of data whose hash is
// h: the slot of an earlier record with the same bytes, or else the empty
// slot where rec goes. Comparing len(rec) bytes suffices: a record of any
// other length already differs in its length varint.
func (p *DecodedPartition) slotOf(h uint64, rec, data []byte) *foldSlot {
	mask := uint64(len(p.fold) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &p.fold[i]
		if s.entry == 0 || s.hash == h && bytes.Equal(data[p.firsts[s.entry-1]:][:len(rec)], rec) {
			return s
		}
	}
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
