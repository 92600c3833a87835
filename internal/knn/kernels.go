package knn

import (
	"math"
	"unsafe"

	"paratreet/internal/vec"
)

// The Go bodies of the kNN kernels, built on every architecture, with the
// signatures, column layout and operation order of the amd64 assembly, so
// both make the same decisions and give the same bits. An explicit
// conversion rounds each product, so no compiler fuses it into a
// multiply-add.

const (
	// lanes is the number of targets the assembly holds in a register.
	lanes = 4
	// chunk is the most targets one filter call tests: one bit each of
	// its uint64 survivor mask.
	chunk = 64
)

// filterGo is the leaf filter of one source at (sx, sy, sz) with ID sid
// against n (0 to chunk) targets: c points at the first target's x in a
// block whose columns are stride float64s apart. Per target it stores
// d2 = ((dx·dx + dy·dy) + dz·dz), dx = sx − x, in d2[i], as Vec3.DistSq
// computes it, and sets bit i of the result when d2 is within the
// target's bound, unless self is all ones and the target's ID is sid.
// Those are the tests of the per-pair loop, pair for pair.
func filterGo(c *float64, stride, n int, sx, sy, sz float64, sid int64, self uint64, d2 *[chunk]float64) uint64 {
	cols := unsafe.Slice(c, colBound*stride+n)
	var survivors uint64
	for i := range n {
		dx, dy, dz := sx-cols[colX*stride+i], sy-cols[colY*stride+i], sz-cols[colZ*stride+i]
		d := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
		d2[i] = d
		isSelf := math.Float64bits(cols[colID*stride+i]) == uint64(sid) && self != 0
		if d <= cols[colBound*stride+i] && !isSelf {
			survivors |= 1 << i
		}
	}
	return survivors
}

// openGo is the per-particle open test of a bucket of n targets, whose
// block of columns starts at c: it reports whether box is within some
// target's bound, by vec.Box.DistSq.
func openGo(c *float64, n int, box *vec.Box) bool {
	cols := unsafe.Slice(c, nCols*n)
	for i := range n {
		p := vec.V(cols[colX*n+i], cols[colY*n+i], cols[colZ*n+i])
		if box.DistSq(p) <= cols[colBound*n+i] {
			return true
		}
	}
	return false
}
