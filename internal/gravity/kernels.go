package gravity

import (
	"math"
	"unsafe"

	"paratreet/internal/vec"
)

// The Go bodies of the packed kernels, built on every architecture, with
// the signatures, slab layout and operation order of the amd64 assembly,
// so both give the same bits. An explicit conversion rounds each product,
// so no compiler fuses it into a multiply-add.
//
// p2p and m2p compute in float32 and accumulate in float64 (DESIGN.md,
// "Mixed precision"): p2p relative to the source leaf's origin o, a target
// at t' = float32(t−o) meeting sources at s' = float32(s−o); m2p on
// dx = float32(c−t), the difference taken in float64. Leaf and Node run
// the same per-target arithmetic, p2pTarget and m2pTarget.

// p2pGo applies one chunk of ns (1 to chunk) sources of a leaf to n
// packed targets: t points at the first target's x in a slab whose
// columns are stride float64s apart, src at the sources' (x, y, z, m)
// relative to the leaf's origin (ox, oy, oz), ids at their IDs. Each
// target sums the chunk in float32, then adds a·G to its acceleration and
// G·pot to its potential in float64.
func p2pGo(t *float64, stride, n int, src *[4]float32, ids *int64, ns int, ox, oy, oz float64, eps2 float32, grav float64) {
	c, ss, is := unsafe.Slice(t, (nCols-1)*stride+n), unsafe.Slice(src, ns), unsafe.Slice(ids, ns)
	for j := range n {
		tx, ty, tz := float32(c[colX*stride+j]-ox), float32(c[colY*stride+j]-oy), float32(c[colZ*stride+j]-oz)
		id := int64(math.Float64bits(c[colID*stride+j]))
		ax, ay, az, pot := p2pTarget(tx, ty, tz, id, ss, is, eps2)
		c[colAX*stride+j] += float64(float64(ax) * grav)
		c[colAY*stride+j] += float64(float64(ay) * grav)
		c[colAZ*stride+j] += float64(float64(az) * grav)
		c[colPot*stride+j] += float64(grav * float64(pot))
	}
}

// p2pTarget sums the forces of one chunk of sources on the target with
// ID id at (tx, ty, tz), skipping a source with its ID: per source,
// dx = s'−t', r2 = ((dx²+dy²)+dz²)+eps2, r = √r2 correctly rounded,
// f = m/(r2·r), a += dx·f and pot −= m/r, all in float32. A source whose
// f is not finite is skipped too: with Soft 0 it sits at the target's
// float32 position (r2 = 0), where the pair has no direction.
func p2pTarget(tx, ty, tz float32, id int64, src [][4]float32, ids []int64, eps2 float32) (ax, ay, az, pot float32) {
	for k := range src {
		if ids[k] == id {
			continue
		}
		s := &src[k]
		dx, dy, dz := s[0]-tx, s[1]-ty, s[2]-tz
		r2 := float32(dx*dx) + float32(dy*dy) + float32(dz*dz) + eps2
		r := float32(math.Sqrt(float64(r2)))
		f := s[3] / float32(r2*r)
		if f-f != 0 { // f is ±Inf or NaN
			continue
		}
		ax, ay, az = ax+float32(dx*f), ay+float32(dy*f), az+float32(dz*f)
		pot -= s[3] / r
	}
	return ax, ay, az, pot
}

// m2pGo is the monopole of mass gm (G·M in float32) at (cx, cy, cz) on n
// packed targets.
func m2pGo(t *float64, stride, n int, cx, cy, cz float64, gm, eps2 float32) {
	c := unsafe.Slice(t, (nCols-1)*stride+n)
	for j := range n {
		ax, ay, az, pot := m2pTarget(float32(cx-c[colX*stride+j]), float32(cy-c[colY*stride+j]), float32(cz-c[colZ*stride+j]), gm, eps2)
		c[colAX*stride+j] += float64(ax)
		c[colAY*stride+j] += float64(ay)
		c[colAZ*stride+j] += float64(az)
		c[colPot*stride+j] -= float64(pot)
	}
}

// m2pTarget is the monopole's acceleration dx·f, with f = gm/(r2·r), and
// potential term gm/r on one target at dx from the centroid, in float32.
func m2pTarget(dx, dy, dz, gm, eps2 float32) (ax, ay, az, pot float32) {
	r2 := float32(dx*dx) + float32(dy*dy) + float32(dz*dz) + eps2
	r := float32(math.Sqrt(float64(r2)))
	f := gm / float32(r2*r)
	return float32(dx * f), float32(dy * f), float32(dz * f), gm / r
}

// reachGo is the opening test of one source against n listed buckets:
// boxes points at six columns of nb float64s (min x/y/z, max x/y/z,
// indexed by bucket), and the decision for entry i of active is bit i%4
// of open[i/4], set where vec.SphereReaches says the sphere at c of
// squared radius rsq reaches the bucket's box. Only the bytes of the n
// entries are written, their bits past entry n-1 clear.
func reachGo(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8) {
	cols, out := unsafe.Slice(boxes, 6*nb), unsafe.Slice(open, (n+lanes-1)/lanes)
	c := vec.V(cx, cy, cz)
	clear(out)
	for i, bi := range unsafe.Slice(active, n) {
		b := int(bi)
		box := vec.Box{
			Min: vec.V(cols[b], cols[nb+b], cols[2*nb+b]),
			Max: vec.V(cols[3*nb+b], cols[4*nb+b], cols[5*nb+b]),
		}
		if vec.SphereReaches(&box, c, rsq) {
			out[i/lanes] |= 1 << (i % lanes)
		}
	}
}
