package msp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"parahash/internal/dna"
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
		p.Records++
		p.Bases += int64(len(sk.Bases))
	}
}

// expand lists each folded record Weight times, as the records it stands for.
func expand(folded []Superkmer) []Superkmer {
	var out []Superkmer
	for _, sk := range folded {
		for range sk.Weight() {
			one := sk
			one.Dup = 0
			out = append(out, one)
		}
	}
	return out
}

// checkFoldedFromStream fails unless folded is records folded: expanded, the
// same multiset, and its entries in the records' order, each at a record.
func checkFoldedFromStream(t *testing.T, what string, folded, records []Superkmer) {
	t.Helper()
	count := make(map[string]int)
	for _, sk := range records {
		count[sk.String()]++
	}
	for _, sk := range expand(folded) {
		count[sk.String()]--
	}
	for key, n := range count {
		if n != 0 {
			t.Fatalf("%s: record %s occurs %d times more in the stream than in the expanded folded records", what, key, n)
		}
	}
	next := 0
	for i, sk := range folded {
		sk.Dup = 0
		for next < len(records) && !reflect.DeepEqual(records[next], sk) {
			next++
		}
		if next == len(records) {
			t.Fatalf("%s: folded record %d (%v) is out of first-appearance order", what, i, sk)
		}
		next++
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
// give the same records — DecodePartition's folded, the streaming decoder's
// one by one — the same counts and byte count, or the same sentinel.
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
	if got.Bases != want.Bases || got.Records != want.Records {
		t.Fatalf("%s: %d records / %d bases, want %d / %d", what, got.Records, got.Bases, want.Records, want.Bases)
	}
	for _, k := range []int{1, 27} {
		if got.NumKmers(k) != want.NumKmers(k) {
			t.Fatalf("%s: NumKmers(%d) = %d, want %d", what, k, got.NumKmers(k), want.NumKmers(k))
		}
	}
	checkFoldedFromStream(t, what, got.Superkmers, want.Superkmers)
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
	for _, n := range []int{2000, 20000} {
		data, _ := encodeClosed(t, 3, n)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := DecodePartition(data); err != nil {
				t.Fatal(err)
			}
		})
		// The records, their bases, the fold index and the first-record offsets.
		if allocs > 4 {
			t.Fatalf("DecodePartition made %.0f allocations for %d records, want at most 4", allocs, n)
		}
	}
}

// encodeRecords is the closed partition image of sks, in order.
func encodeRecords(t *testing.T, sks []Superkmer) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, sk := range sks {
		if err := enc.Encode(sk); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeFoldsIdenticalRecords pins what the decoder folds: records
// with identical bytes, and nothing that ForEachKmerEdge could tell apart.
func TestDecodeFoldsIdenticalRecords(t *testing.T) {
	bases := randomRead(rand.New(rand.NewSource(27)), 40)
	rec := func(n int, hasLeft bool, left dna.Base, hasRight bool, right dna.Base) Superkmer {
		return Superkmer{Bases: bases[:n], HasLeft: hasLeft, Left: left, HasRight: hasRight, Right: right}
	}
	folded := func(sk Superkmer, dup uint32) Superkmer {
		sk.Dup = dup
		return sk
	}
	var (
		plain        = rec(30, false, 0, false, 0)
		left0, left1 = rec(30, true, 0, false, 0), rec(30, true, 1, false, 0)
		right2       = rec(30, false, 0, true, 2)
		right3       = rec(30, false, 0, true, 3)
		both21       = rec(30, true, 2, true, 1)
		both20       = rec(30, true, 2, true, 0)
	)
	for _, tc := range []struct {
		name   string
		maxDup uint32 // when set, lowers the cap for the case
		in     []Superkmer
		want   []Superkmer // distinct, in order of first appearance
	}{{
		name: "HasLeft, Left, HasRight and Right keep records apart",
		in:   []Superkmer{plain, left0, left1, right2, right3, both21, both20, both21, plain, right3},
		want: []Superkmer{folded(plain, 1), left0, left1, right2, folded(right3, 1), folded(both21, 1), both20},
	}, {
		// 28 and 29 bases pack into the same first seven bytes; 32 fills the
		// byte 29 pads. Only the length tells them apart.
		name: "a prefix of another record",
		in:   []Superkmer{{Bases: bases[:28]}, {Bases: bases[:29]}, {Bases: bases[:32]}, {Bases: bases[:28]}, {Bases: bases[:29]}},
		want: []Superkmer{{Bases: bases[:28], Dup: 1}, {Bases: bases[:29], Dup: 1}, {Bases: bases[:32]}},
	}, {
		name: "one record repeated 100k times",
		in:   repeatRecord(both20, 100000),
		want: []Superkmer{folded(both20, 99999)},
	}, {
		// A full superkmer stays as it is; the next copy starts a new one,
		// which the copies after it fold into.
		name:   "past the Dup cap",
		maxDup: 2,
		in:     []Superkmer{plain, plain, plain, plain, left0, plain, plain, plain},
		want:   []Superkmer{folded(plain, 2), folded(plain, 2), left0, plain},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.maxDup != 0 {
				defer func(was uint32) { maxDup = was }(maxDup)
				maxDup = tc.maxDup
			}
			data := encodeRecords(t, tc.in)
			checkDecodersAgree(t, tc.name, data)
			got, err := DecodePartition(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Superkmers) != len(tc.want) {
				t.Fatalf("%d folded records, want %d", len(got.Superkmers), len(tc.want))
			}
			for i, want := range tc.want {
				if !reflect.DeepEqual(got.Superkmers[i], want) {
					t.Fatalf("folded record %d is %v ×%d, want %v ×%d", i, got.Superkmers[i], got.Superkmers[i].Weight(), want, want.Weight())
				}
			}
			var bases int64
			for _, sk := range tc.in {
				bases += int64(len(sk.Bases))
			}
			if got.Records != int64(len(tc.in)) || got.Bases != bases {
				t.Fatalf("%d records / %d bases, want %d / %d", got.Records, got.Bases, len(tc.in), bases)
			}
		})
	}
}

func repeatRecord(sk Superkmer, n int) []Superkmer {
	out := make([]Superkmer, n)
	for i := range out {
		out[i] = sk
	}
	return out
}

// TestFoldFieldsFitThePadding holds the weights to the padding they were
// put in: a folded superkmer costs no more memory than a plain one, and a
// weighted spill record is still charged its true size.
func TestFoldFieldsFitThePadding(t *testing.T) {
	if got := unsafe.Sizeof(Superkmer{}); got != 48 {
		t.Errorf("Superkmer is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(SpillRecord{}); got != SpillRecordBytes {
		t.Errorf("SpillRecord is %d bytes, SpillRecordBytes says %d", got, SpillRecordBytes)
	}
}

// TestDecodeReusesItsMemory decodes partitions of different sizes, and a
// damaged one, into one DecodedPartition: each result is what a fresh
// DecodePartition gives, nothing of an earlier partition shows through, and
// once the largest has been seen decoding allocates nothing.
func TestDecodeReusesItsMemory(t *testing.T) {
	var p DecodedPartition
	images := make([][]byte, 0, 5)
	for _, n := range []int{1500, 20, 0, 900} {
		data, _ := encodeClosed(t, int64(n), n)
		images = append(images, data)
	}
	// Every record twice: it folds to half its records.
	_, twice := encodeClosed(t, 7, 600)
	images = append(images, encodeRecords(t, append(twice, twice...)))
	for i, data := range images {
		if err := p.Decode(data); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodePartition(data)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bases != fresh.Bases || p.Records != fresh.Records || p.Bytes != fresh.Bytes || len(p.Superkmers) != len(fresh.Superkmers) {
			t.Fatalf("image %d: reused decode gives %d bases, %d records, %d bytes, %d folded; a fresh one %d, %d, %d, %d",
				i, p.Bases, p.Records, p.Bytes, len(p.Superkmers), fresh.Bases, fresh.Records, fresh.Bytes, len(fresh.Superkmers))
		}
		for j := range fresh.Superkmers {
			if !reflect.DeepEqual(p.Superkmers[j], fresh.Superkmers[j]) {
				t.Fatalf("image %d: record %d differs from a fresh decode's", i, j)
			}
		}
		// Damage leaves no records behind and reports the bytes walked.
		cut := data[:len(data)-1]
		err = p.Decode(cut)
		_, wantErr := DecodePartition(cut)
		if err == nil || sentinelOf(err) != sentinelOf(wantErr) || len(p.Superkmers) != 0 || p.Bases != 0 || p.Records != 0 {
			t.Fatalf("image %d, cut short: err %v (fresh: %v), %d records left", i, err, wantErr, len(p.Superkmers))
		}
	}
	if err := p.Decode(images[4]); err != nil || len(p.Superkmers) != 600 || p.Records != 1200 {
		t.Fatalf("the doubled image decodes to %d records standing for %d (err %v), want 600 for 1200", len(p.Superkmers), p.Records, err)
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
// decoder's verdict on arbitrary bytes: the same records, folded, and the
// same byte count, or the same sentinel.
func FuzzDecodePartition(f *testing.F) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	_ = enc.Encode(Superkmer{Bases: basesFromBytes([]byte{0, 1, 2, 3, 0, 1})})
	_ = enc.Encode(Superkmer{Bases: basesFromBytes([]byte{3, 3, 3}), HasRight: true, Right: 1})
	_ = enc.Encode(Superkmer{Bases: basesFromBytes([]byte{0, 1, 2, 3, 0, 1})})
	_ = enc.Encode(Superkmer{Bases: basesFromBytes([]byte{0, 1, 2, 3, 0})})
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
