package gravity

import (
	"math"
	"unsafe"

	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

// The Go bodies of the packed kernels, built on every architecture, with
// the signatures, slab layout and operation order of the amd64 assembly,
// so both give the same bits. An explicit float64 conversion rounds each
// product, so no compiler fuses it into a multiply-add.

// p2pGo is Leaf over n packed targets: t points at the first target's x
// in a slab whose columns are stride float64s apart, and src at ns source
// particles.
func p2pGo(t *float64, stride, n int, src *particle.Particle, ns int, eps2, grav float64) {
	c, ss := unsafe.Slice(t, (nCols-1)*stride+n), unsafe.Slice(src, ns)
	for j := range n {
		x, y, z := c[colX*stride+j], c[colY*stride+j], c[colZ*stride+j]
		id := int64(math.Float64bits(c[colID*stride+j]))
		var ax, ay, az, pot float64
		for k := range ss {
			s := &ss[k]
			if s.ID == id {
				continue
			}
			dx, dy, dz := s.Pos.X-x, s.Pos.Y-y, s.Pos.Z-z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz) + eps2
			r := math.Sqrt(r2)
			f := s.Mass / float64(r2*r)
			ax, ay, az = ax+float64(dx*f), ay+float64(dy*f), az+float64(dz*f)
			pot -= s.Mass / r
		}
		c[colAX*stride+j] += float64(ax * grav)
		c[colAY*stride+j] += float64(ay * grav)
		c[colAZ*stride+j] += float64(az * grav)
		c[colPot*stride+j] += float64(grav * pot)
	}
}

// m2pGo is Node's monopole over n packed targets.
func m2pGo(t *float64, stride, n int, cx, cy, cz, gm, eps2 float64) {
	c := unsafe.Slice(t, (nCols-1)*stride+n)
	for j := range n {
		dx, dy, dz := cx-c[colX*stride+j], cy-c[colY*stride+j], cz-c[colZ*stride+j]
		r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz) + eps2
		r := math.Sqrt(r2)
		f := float64(gm * (1 / float64(r2*r)))
		c[colAX*stride+j] += float64(dx * f)
		c[colAY*stride+j] += float64(dy * f)
		c[colAZ*stride+j] += float64(dz * f)
		c[colPot*stride+j] -= gm / r
	}
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
