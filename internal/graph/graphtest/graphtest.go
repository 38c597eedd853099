// Package graphtest makes graph files for tests outside internal/graph that
// no binary writes any more.
package graphtest

import (
	"encoding/binary"
	"hash/crc32"

	"parahash/internal/graph"
)

// Version1 is the PHDG image an older binary wrote for g: a 14-byte header
// and 48-byte records, Hi, Lo and eight 4-byte counts.
func Version1(g *graph.Subgraph) []byte {
	out := append([]byte("PHDG"), 1, byte(g.K))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(g.Vertices)))
	for _, v := range g.Vertices {
		out = binary.LittleEndian.AppendUint64(out, v.Kmer.Hi)
		out = binary.LittleEndian.AppendUint64(out, v.Kmer.Lo)
		for _, c := range v.Counts {
			out = binary.LittleEndian.AppendUint32(out, c)
		}
	}
	return out
}

// RunVersion1 is the PHSR spill run an older binary wrote for g's sorted
// vertices: Version1's image under the run magic, then the CRC-32 of it.
func RunVersion1(g *graph.Subgraph) []byte {
	out := Version1(g)
	copy(out, "PHSR")
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}
