package msp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

// streamDecode is the reference for DecodePartition: the streaming decoder
// with the footer required, every record copied out of its reuse buffer.
func streamDecode(data []byte) (DecodedPartition, error) {
	dec := NewDecoder(bytes.NewReader(data))
	dec.RequireFooter = true
	var p DecodedPartition
	for {
		sk, err := dec.Next()
		if err != nil {
			p.Bytes = dec.BytesRead()
			if err == io.EOF {
				return p, nil
			}
			return DecodedPartition{Bytes: p.Bytes}, err
		}
		sk.Bases = append(sk.Bases[:0:0], sk.Bases...)
		p.Superkmers = append(p.Superkmers, sk)
		p.Bases += int64(len(sk.Bases))
	}
}

// sentinelOf names which of the package's two decode sentinels err wraps.
func sentinelOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCorruptPartition):
		return "ErrCorruptPartition"
	case errors.Is(err, ErrCorrupt):
		return "ErrCorrupt"
	}
	return "" // neither sentinel: never acceptable
}

// checkDecodersAgree fails unless DecodePartition and the streaming decoder
// give the same records, flags and byte count, or the same sentinel.
func checkDecodersAgree(t *testing.T, what string, data []byte) {
	t.Helper()
	want, wantErr := streamDecode(data)
	got, gotErr := DecodePartition(data)
	if sentinelOf(gotErr) != sentinelOf(wantErr) || sentinelOf(gotErr) == "" {
		t.Fatalf("%s: DecodePartition error %v, streaming decoder %v", what, gotErr, wantErr)
	}
	if got.Bytes != want.Bytes {
		t.Fatalf("%s: DecodePartition consumed %d bytes, streaming decoder %d (err %v)", what, got.Bytes, want.Bytes, wantErr)
	}
	if gotErr != nil {
		if got.Superkmers != nil {
			t.Fatalf("%s: records returned beside error %v", what, gotErr)
		}
		return
	}
	if got.Bases != want.Bases || len(got.Superkmers) != len(want.Superkmers) {
		t.Fatalf("%s: %d records / %d bases, want %d / %d", what, len(got.Superkmers), got.Bases, len(want.Superkmers), want.Bases)
	}
	for i := range want.Superkmers {
		if !reflect.DeepEqual(got.Superkmers[i], want.Superkmers[i]) {
			t.Fatalf("%s: record %d is %v, want %v", what, i, got.Superkmers[i], want.Superkmers[i])
		}
	}
}

// footered appends a correct integrity footer to raw record bytes.
func footered(records []byte) []byte {
	out := append(append([]byte(nil), records...), footerMarker, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[len(records)+1:], crc32.ChecksumIEEE(records))
	return out
}

func TestDecodePartitionMatchesDecoder(t *testing.T) {
	data, want := encodeClosed(t, 7, 300)
	checkDecodersAgree(t, "valid", data)
	got, err := DecodePartition(data)
	if err != nil {
		t.Fatal(err)
	}
	var kmers int64
	for i, sk := range got.Superkmers {
		if !reflect.DeepEqual(sk, want[i]) {
			t.Fatalf("record %d is %v, encoded %v", i, sk, want[i])
		}
		if cap(sk.Bases) != len(sk.Bases) {
			t.Fatalf("record %d can grow into its neighbour (cap %d, len %d)", i, cap(sk.Bases), len(sk.Bases))
		}
		kmers += int64(sk.NumKmers(27))
	}
	if got.NumKmers(27) != kmers {
		t.Fatalf("NumKmers(27) = %d, records sum to %d", got.NumKmers(27), kmers)
	}

	empty, _ := encodeClosed(t, 1, 0)
	checkDecodersAgree(t, "empty partition", empty)

	// Damage at every offset of a stream short enough to try them all.
	data, _ = encodeClosed(t, 8, 40)
	records := data[:len(data)-FooterSize]
	for cut := 0; cut <= len(data); cut++ {
		checkDecodersAgree(t, "truncated", data[:cut])
	}
	for bit := 0; bit < len(data)*8; bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		checkDecodersAgree(t, "bit flip", flipped)
	}
	checkDecodersAgree(t, "missing footer", records)
	checkDecodersAgree(t, "trailing byte", append(append([]byte(nil), data...), 7))
	checkDecodersAgree(t, "trailing footer", append(append([]byte(nil), data...), data[len(records):]...))

	overflow := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)
	overflow[binary.MaxVarintLen64-1] = 0x02
	for what, recs := range map[string][]byte{
		"varint overflow, tenth byte too large": overflow,
		"varint overflow, eleven bytes":         bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64+1),
		"varint cut short":                      {0x80, 0x80},
		"zero length in two bytes":              {0x80, 0x00, 0, 0},
		"length beyond the cap":                 binary.AppendUvarint(nil, maxRecordBases+1),
		"length beyond the data":                append(binary.AppendUvarint(nil, maxRecordBases), 0, 0x1b),
		"length of 2^63":                        binary.AppendUvarint(nil, 1<<63),
	} {
		checkDecodersAgree(t, what, recs)
		checkDecodersAgree(t, what+", footered", footered(recs))
		checkDecodersAgree(t, what+", after valid records", footered(append(append([]byte(nil), records...), recs...)))
	}
}

func TestDecodePartitionAllocs(t *testing.T) {
	data, _ := encodeClosed(t, 3, 2000)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodePartition(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("DecodePartition made %.0f allocations for 2000 records, want at most 3", allocs)
	}
}

// TestDecodeReusesItsMemory decodes partitions of different sizes, and a
// damaged one, into one DecodedPartition: each result is what a fresh
// DecodePartition gives, nothing of an earlier partition shows through, and
// once the largest has been seen decoding allocates nothing.
func TestDecodeReusesItsMemory(t *testing.T) {
	var p DecodedPartition
	images := make([][]byte, 0, 4)
	for _, n := range []int{1500, 20, 0, 900} {
		data, want := encodeClosed(t, int64(n), n)
		images = append(images, data)
		if err := p.Decode(data); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodePartition(data)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bases != fresh.Bases || p.Bytes != fresh.Bytes || len(p.Superkmers) != len(want) {
			t.Fatalf("%d records: reused decode gives %d bases, %d bytes, %d records; a fresh one %d, %d, %d",
				n, p.Bases, p.Bytes, len(p.Superkmers), fresh.Bases, fresh.Bytes, len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(p.Superkmers[i], fresh.Superkmers[i]) {
				t.Fatalf("%d records: record %d differs from a fresh decode's", n, i)
			}
		}
		// Damage leaves no records behind and reports the bytes walked.
		cut := data[:len(data)-1]
		err = p.Decode(cut)
		_, wantErr := DecodePartition(cut)
		if err == nil || sentinelOf(err) != sentinelOf(wantErr) || len(p.Superkmers) != 0 || p.Bases != 0 {
			t.Fatalf("%d records, cut short: err %v (fresh: %v), %d records left", n, err, wantErr, len(p.Superkmers))
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, data := range images {
			if err := p.Decode(data); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding into warmed memory made %.0f allocations, want none", allocs)
	}
}

// FuzzDecodePartition holds the whole-partition decoder to the streaming
// decoder's verdict on arbitrary bytes: same records and byte count, or the
// same sentinel.
func FuzzDecodePartition(f *testing.F) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	_ = enc.Encode(Superkmer{Bases: basesFromBytes([]byte{0, 1, 2, 3, 0, 1})})
	_ = enc.Encode(Superkmer{Bases: basesFromBytes([]byte{3, 3, 3}), HasRight: true, Right: 1})
	_ = enc.Close()
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(valid[:len(valid)-FooterSize])
	f.Add(valid[:len(valid)-2])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0x80, 0x00, 0, 0})
	f.Add(footered(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
	f.Add(footered(binary.AppendUvarint(nil, maxRecordBases+1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodersAgree(t, "fuzz input", data)
	})
}

func BenchmarkDecodePartition(b *testing.B) {
	data, _ := benchPartition(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePartition(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderNext times the streaming decoder on the same image, the
// way the traced benchmark's msp.decode replay drives it.
func BenchmarkDecoderNext(b *testing.B) {
	data, records := benchPartition(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(bytes.NewReader(data))
		n := 0
		for {
			if _, err := dec.Next(); err != nil {
				break
			}
			n++
		}
		if n != records {
			b.Fatalf("decoded %d records, want %d", n, records)
		}
	}
}

// benchPartition is a partition image the size of one of the benchmark's.
func benchPartition(b *testing.B) ([]byte, int) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	const records = 10000
	bases := basesFromBytes(bytes.Repeat([]byte{0, 1, 2, 3, 3, 1, 0, 2}, 5))
	for i := 0; i < records; i++ {
		if err := enc.Encode(Superkmer{Bases: bases[:27+i%13], HasLeft: i%2 == 0, Left: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), records
}
