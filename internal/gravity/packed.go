package gravity

import (
	"math"
	"unsafe"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
)

// The packed targets: while a traversal runs with the vector kernels, a
// partition's targets live in one slab of nCols columns, each indexed by
// particle offset (Bucket.Offset + i) and padded by lanes so the kernels'
// full-width loads stay in bounds. The slab hangs off Targets.Packed from
// Pack to Unpack.
const (
	colX = iota
	colY
	colZ
	colID // particle ID bits, compared as integers for the self-pair test
	colAX
	colAY
	colAZ
	colPot
	nCols

	lanes = 4 // targets per vector register
)

// Kernels names the gravity kernels this process runs for monopole
// traversals of partition buckets: "avx2" for the packed vector kernels,
// "go" for the per-pair Go loops (no AVX2, another architecture). Both
// give the same bits; the Go loops take about twice as long.
func Kernels() string {
	if useKernels {
		return "avx2"
	}
	return "go"
}

// cols is a packed slab split into its columns.
type cols [nCols][]float64

// columns splits a packed slab into its columns.
func columns(packed []float64) (c cols) {
	stride := len(packed) / nCols
	for i := range c {
		c[i] = packed[i*stride : (i+1)*stride]
	}
	return c
}

// put copies particle p into row j of the columns.
func (c *cols) put(j int, p *particle.Particle) {
	c[colX][j], c[colY][j], c[colZ][j] = p.Pos.X, p.Pos.Y, p.Pos.Z
	c[colID][j] = math.Float64frombits(uint64(p.ID))
	c[colAX][j], c[colAY][j], c[colAZ][j] = p.Acc.X, p.Acc.Y, p.Acc.Z
	c[colPot][j] = p.Potential
}

// get copies row j's accumulators back into particle p.
func (c *cols) get(j int, p *particle.Particle) {
	p.Acc.X, p.Acc.Y, p.Acc.Z = c[colAX][j], c[colAY][j], c[colAZ][j]
	p.Potential = c[colPot][j]
}

// Pack implements traverse.Packer. Where the vector kernels run, a
// monopole visitor copies the traversal's targets into a fresh slab on
// their shared Targets, accumulators seeded from Acc and Potential. It
// does nothing (and VisitSource takes the per-pair loop) without the
// kernels, with Quadrupole, or when the buckets do not share one numbered
// Targets.
func (v Visitor[D]) Pack(buckets []*traverse.Bucket) {
	if !useKernels || v.P.Quadrupole {
		return
	}
	t := traverse.SharedTargets(buckets)
	if t == nil {
		return
	}
	packed := make([]float64, nCols*(t.N+lanes))
	c := columns(packed)
	for _, b := range buckets {
		if b.Offset < 0 || b.Offset+len(b.Particles) > t.N {
			return
		}
		for i := range b.Particles {
			c.put(b.Offset+i, &b.Particles[i])
		}
	}
	t.Packed = packed
}

// Unpack implements traverse.Packer: it writes the packed accumulators
// back to Acc and Potential and drops the slab.
func (v Visitor[D]) Unpack(buckets []*traverse.Bucket) {
	t := traverse.SharedTargets(buckets)
	if t == nil || t.Packed == nil {
		return
	}
	c := columns(t.Packed)
	for _, b := range buckets {
		for i := range b.Particles {
			c.get(b.Offset+i, &b.Particles[i])
		}
	}
	t.Packed = nil
}

// span is a range [start, end) of packed targets waiting for one kernel
// call: consecutive buckets whose particle ranges touch.
type span struct{ start, end int }

// visitPacked is VisitSource over packed targets. Each bucket's decision
// is the per-pair one; the kernels run once per span of buckets that
// take the same kernel, a bucket joining the span when its range starts
// where the span ends. Every target still meets the source once per
// listing, in list order, so its additions happen in the per-pair order.
//
//paratreet:hotpath
func (v Visitor[D]) visitPacked(s *sourceTerms, source *tree.Node[D], packed []float64, buckets []*traverse.Bucket, active, opened []int32, leaf bool) []int32 {
	k := packedKernels{packed: packed, stride: len(packed) / nCols, eps2: v.P.Soft * v.P.Soft}
	var far, near span
	for _, bi := range active {
		b := buckets[bi]
		if !s.opens(b) {
			if b.Offset != far.end {
				k.m2p(s, far)
				far.start = b.Offset
			}
			far.end = b.Offset + len(b.Particles)
			continue
		}
		if leaf {
			if b.Offset != near.end {
				k.p2p(source.Particles, v.P.G, near)
				near.start = b.Offset
			}
			near.end = b.Offset + len(b.Particles)
		}
		opened = append(opened, bi)
	}
	k.m2p(s, far)
	if leaf {
		k.p2p(source.Particles, v.P.G, near)
	}
	return opened
}

// packedKernels calls the vector kernels on one slab.
type packedKernels struct {
	packed []float64
	stride int
	eps2   float64
}

// m2p applies the monopole of s to the targets of r: applyNode's
// arithmetic.
//
//paratreet:hotpath
func (k *packedKernels) m2p(s *sourceTerms, r span) {
	if n := r.end - r.start; n > 0 {
		m2p(&k.packed[r.start], k.stride, n, s.c.X, s.c.Y, s.c.Z, s.gm, k.eps2)
	}
}

// p2p applies the pairwise forces of src to the targets of r: Leaf's
// arithmetic, including its final Acc += a·G for a source with no
// particles.
//
//paratreet:hotpath
func (k *packedKernels) p2p(src []particle.Particle, grav float64, r span) {
	if n := r.end - r.start; n > 0 {
		p2p(&k.packed[r.start], k.stride, n, unsafe.SliceData(src), len(src), k.eps2, grav)
	}
}
