package gravity

import (
	"math"
	"unsafe"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
)

// The packed targets: while a traversal runs, a partition's targets live
// in one slab of nCols columns, each indexed by particle offset
// (Bucket.Offset + i) and padded by lanes so the kernels' full-width
// loads stay in bounds. After them come nBucketCols columns indexed by the
// traversal's bucket index: the bucket's box, and its particle range
// [Offset, Offset+len) as the low and high 32 bits of one word. The slab
// hangs off Targets.Packed from Pack to Unpack.
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

// The bucket columns: min x/y/z and max x/y/z of the box, in the order
// the reach kernel reads them, then the particle range.
const (
	colRange    = 6
	nBucketCols = 7

	reachChunk = 256 // active entries one reach call decides
)

// Kernels names the kernel bodies visitPacked calls in this process:
// "avx2" for the amd64 assembly, "go" for the portable Go bodies (no
// AVX2, another architecture). Both give the same bits.
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

// Pack implements traverse.Packer: it copies the traversal's targets
// into a fresh slab on their shared Targets, accumulators seeded from Acc
// and Potential, with each bucket's box and particle range beside them.
// It does nothing (and VisitSource runs Open, Node and Leaf per bucket)
// when the buckets do not share one numbered Targets.
func (v Visitor[D]) Pack(buckets []*traverse.Bucket) {
	t := traverse.SharedTargets(buckets)
	if t == nil || t.N > math.MaxInt32 {
		return
	}
	nt, nb := nCols*(t.N+lanes), len(buckets)
	packed := make([]float64, nt+nBucketCols*nb)
	c, bc := columns(packed[:nt]), packed[nt:]
	for bi, b := range buckets {
		end := b.Offset + len(b.Particles)
		if b.Offset < 0 || end > t.N {
			return
		}
		for i := range b.Particles {
			c.put(b.Offset+i, &b.Particles[i])
		}
		box := &b.Box
		for col, x := range [nBucketCols]float64{
			box.Min.X, box.Min.Y, box.Min.Z, box.Max.X, box.Max.Y, box.Max.Z,
			math.Float64frombits(uint64(end)<<32 | uint64(b.Offset)),
		} {
			bc[col*nb+bi] = x
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
	c := columns(t.Packed[:nCols*(t.N+lanes)])
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

// visitPacked is VisitSource over packed targets. The reach kernel makes
// each bucket's decision, the per-pair one, a chunk of active at a time;
// then one pass in list order runs the kernels once per span of buckets
// that take the same kernel, a bucket joining the span when its range
// starts where the span ends. Every target still meets the source once
// per listing, in list order, so its additions happen in the per-pair
// order. Active indexes the buckets Pack packed: the engine passes the
// traversal's buckets to both.
//
//paratreet:hotpath
func (v Visitor[D]) visitPacked(source *tree.Node[D], t *traverse.Targets, active, opened []int32, leaf bool) []int32 {
	s := v.terms(source)
	stride := t.N + lanes
	nt := nCols * stride
	k := packedKernels{packed: t.Packed[:nt], stride: stride, eps2: v.P.Soft * v.P.Soft}
	bc := t.Packed[nt:]
	nb := len(bc) / nBucketCols
	ranges := bc[colRange*nb : (colRange+1)*nb]
	var far, near span
	var open [reachChunk / lanes]uint8
	for len(active) > 0 {
		chunk := active[:min(len(active), reachChunk)]
		active = active[len(chunk):]
		reach(&bc[0], nb, &chunk[0], len(chunk), s.c.X, s.c.Y, s.c.Z, s.rsq, &open[0])
		for i, bi := range chunk {
			r := math.Float64bits(ranges[bi])
			start, end := int(uint32(r)), int(r>>32)
			if open[i/lanes]>>(i%lanes)&1 == 0 {
				if start != far.end {
					k.m2p(&s, far)
					far.start = start
				}
				far.end = end
				continue
			}
			if leaf {
				if start != near.end {
					k.p2p(source.Particles, v.P.G, near)
					near.start = start
				}
				near.end = end
			}
			opened = append(opened, bi)
		}
	}
	k.m2p(&s, far)
	if leaf {
		k.p2p(source.Particles, v.P.G, near)
	}
	return opened
}

// packedKernels calls the kernels on one slab.
type packedKernels struct {
	packed []float64
	stride int
	eps2   float64
}

// m2p applies the monopole of s to the targets of r: Node's arithmetic.
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
