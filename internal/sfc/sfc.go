// Package sfc implements 63-bit space-filling-curve keys over a 3-D
// universe box. Two curves are provided: Morton (Z-order), whose key
// prefixes coincide with octree node paths, and Hilbert, whose superior
// locality makes it a common decomposition choice. Keys use 21 bits per
// dimension, and every key has bit 63 clear.
package sfc

import (
	"math"

	"paratreet/internal/vec"
)

// Bits is the number of bits of resolution per dimension.
const Bits = 21

// MaxCoord is the largest quantized integer coordinate.
const MaxCoord = (1 << Bits) - 1

// Curve identifies a space-filling curve.
type Curve int

const (
	// Morton is Z-order: interleaved coordinate bits.
	Morton Curve = iota
	// Hilbert is the 3-D Hilbert curve (better locality than Morton).
	Hilbert
)

// String implements fmt.Stringer.
func (c Curve) String() string {
	switch c {
	case Morton:
		return "morton"
	case Hilbert:
		return "hilbert"
	default:
		return "unknown"
	}
}

// Quantize maps a position inside box to integer lattice coordinates in
// [0, MaxCoord]. Positions outside the box are clamped.
func Quantize(p vec.Vec3, box vec.Box) (x, y, z uint32) {
	return quantize(p.X, box.Min.X, box.Max.X),
		quantize(p.Y, box.Min.Y, box.Max.Y),
		quantize(p.Z, box.Min.Z, box.Max.Z)
}

// quantize maps v in [lo, hi] to a lattice coordinate. The division stays
// a division: multiplying by a precomputed 1/span rounds differently and
// would move keys, while the scale by 2^21 is exact either way.
func quantize(v, lo, hi float64) uint32 {
	span := hi - lo
	if span <= 0 {
		return 0
	}
	f := (v - lo) / span
	if f < 0 {
		f = 0
	}
	// Scale so that only v == hi maps to MaxCoord exactly.
	i := int64(f * (MaxCoord + 1))
	if i > MaxCoord {
		i = MaxCoord
	}
	return uint32(i)
}

// Dequantize maps integer lattice coordinates back to the center of their
// lattice cell inside box.
func Dequantize(x, y, z uint32, box vec.Box) vec.Vec3 {
	d := box.Dims()
	f := func(i uint32, lo, span float64) float64 {
		return lo + (float64(i)+0.5)/float64(MaxCoord+1)*span
	}
	return vec.V(f(x, box.Min.X, d.X), f(y, box.Min.Y, d.Y), f(z, box.Min.Z, d.Z))
}

// spread3 spreads the low 21 bits of v so there are two zero bits between
// each original bit (standard Morton bit-twiddling).
func spread3(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 is the inverse of spread3.
func compact3(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3
	x = (x ^ (x >> 4)) & 0x100f00f00f00f00f
	x = (x ^ (x >> 8)) & 0x1f0000ff0000ff
	x = (x ^ (x >> 16)) & 0x1f00000000ffff
	x = (x ^ (x >> 32)) & 0x1fffff
	return uint32(x)
}

// MortonKey interleaves quantized coordinates into a 63-bit Z-order key.
// Bit layout (most significant triplet first): z y x, matching octant
// indexing where bit 0 of an octant is the x half.
func MortonKey(p vec.Vec3, box vec.Box) uint64 {
	x, y, z := Quantize(p, box)
	return EncodeMorton(x, y, z)
}

// EncodeMorton interleaves pre-quantized coordinates.
func EncodeMorton(x, y, z uint32) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// DecodeMorton recovers quantized coordinates from a Morton key.
func DecodeMorton(key uint64) (x, y, z uint32) {
	return compact3(key), compact3(key >> 1), compact3(key >> 2)
}

// HilbertKey maps a position to its 63-bit Hilbert-curve index.
func HilbertKey(p vec.Vec3, box vec.Box) uint64 {
	x, y, z := Quantize(p, box)
	return EncodeHilbert(x, y, z)
}

// EncodeHilbert converts quantized coordinates to a Hilbert index using the
// Skilling transpose algorithm (Skilling, 2004).
func EncodeHilbert(x, y, z uint32) uint64 {
	X := [3]uint32{x, y, z}
	// Inverse undo excess work.
	M := uint32(1) << (Bits - 1)
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < 3; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		X[i] ^= X[i-1]
	}
	t := uint32(0)
	for Q := M; Q > 1; Q >>= 1 {
		if X[2]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < 3; i++ {
		X[i] ^= t
	}
	return interleaveTranspose(X)
}

// DecodeHilbert is the inverse of EncodeHilbert.
func DecodeHilbert(key uint64) (x, y, z uint32) {
	X := deinterleaveTranspose(key)
	N := uint32(2) << (Bits - 1)
	// Gray decode by H ^ (H/2).
	t := X[2] >> 1
	for i := 2; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint32(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := 2; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				tt := (X[0] ^ X[i]) & P
				X[0] ^= tt
				X[i] ^= tt
			}
		}
	}
	return X[0], X[1], X[2]
}

// interleaveTranspose packs the transpose-form Hilbert coordinate (bit b of
// axis i at position 3*b+(2-i)) into a single integer with axis 0 most
// significant within each triplet.
func interleaveTranspose(X [3]uint32) uint64 {
	var key uint64
	for b := Bits - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			key = key<<1 | uint64((X[i]>>uint(b))&1)
		}
	}
	return key
}

// deinterleaveTranspose inverts interleaveTranspose: bit b of axis i lives
// at key bit 3*b + (2-i).
func deinterleaveTranspose(key uint64) [3]uint32 {
	var X [3]uint32
	for b := 0; b < Bits; b++ {
		for i := 0; i < 3; i++ {
			X[i] |= uint32((key>>uint(3*b+(2-i)))&1) << uint(b)
		}
	}
	return X
}

// Key computes the key for position p in box under the given curve.
func Key(c Curve, p vec.Vec3, box vec.Box) uint64 {
	if c == Hilbert {
		return HilbertKey(p, box)
	}
	return MortonKey(p, box)
}

// CellBox returns the box of the Morton cell identified by the top 3*level
// bits of key, within universe. Level 0 is the whole universe.
func CellBox(key uint64, level int, universe vec.Box) vec.Box {
	b := universe
	for l := 0; l < level; l++ {
		shift := uint(3 * (Bits - 1 - l))
		oct := int((key >> shift) & 7)
		// Morton triplet is z y x; Box.Octant uses bit0=x, bit1=y, bit2=z.
		b = b.OctantBox(oct)
	}
	return b
}

// KeyDistance1Norm returns the Manhattan distance between the lattice
// points of two Morton keys, a locality metric used in tests.
func KeyDistance1Norm(a, b uint64) float64 {
	ax, ay, az := DecodeMorton(a)
	bx, by, bz := DecodeMorton(b)
	return math.Abs(float64(ax)-float64(bx)) +
		math.Abs(float64(ay)-float64(by)) +
		math.Abs(float64(az)-float64(bz))
}
