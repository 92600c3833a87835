package particle

import (
	"encoding/binary"
	"math"
)

// BinarySize is the byte length of one particle's wire record, used by the
// remote-fill serialization in the cache layer.
const BinarySize = recordSize + 8 + 3*8 + 4 // dataset record, Key, Acc, Partition

// AppendBinary appends p's wire record to dst and returns the extended
// slice. The wire record is the dataset record followed by Key, Acc and
// Partition, so remote leaf buckets arrive traversal-ready.
func AppendBinary(dst []byte, p *Particle) []byte {
	var buf [BinarySize]byte
	putRecord(buf[:], p)
	off := recordSize
	binary.LittleEndian.PutUint64(buf[off:], p.Key)
	off += 8
	for _, v := range [3]float64{p.Acc.X, p.Acc.Y, p.Acc.Z} {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(p.Partition))
	return append(dst, buf[:]...)
}

// DecodeBinary decodes one wire record from b into p and returns the number
// of bytes consumed, or 0 if b is too short.
func DecodeBinary(b []byte, p *Particle) int {
	if len(b) < BinarySize {
		return 0
	}
	getRecord(b, p)
	off := recordSize
	p.Key = binary.LittleEndian.Uint64(b[off:])
	off += 8
	p.Acc.X = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	p.Acc.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:]))
	p.Acc.Z = math.Float64frombits(binary.LittleEndian.Uint64(b[off+16:]))
	p.Partition = int32(binary.LittleEndian.Uint32(b[off+24:]))
	return BinarySize
}
