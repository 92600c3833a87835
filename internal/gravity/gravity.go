// Package gravity implements the paper's flagship application:
// Barnes-Hut gravitational force calculation (§II-D3, §III-A). The
// CentroidData moments are the paper's Fig 6; the Visitor mirrors Fig 7,
// opening nodes whose theta-scaled bounding sphere intersects the target
// bucket. A direct O(N²) solver provides the accuracy reference.
package gravity

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// CentroidData is the per-node Data for gravity (the paper's Fig 6):
// total mass and the raw mass moment about the origin. Both are additive,
// so Accumulator.Add is plain summation; the centroid is derived on
// demand.
type CentroidData struct {
	Mass float64
	// M1 is Σ m·x.
	M1 vec.Vec3
}

// Centroid returns the center of mass (zero for massless nodes).
func (d *CentroidData) Centroid() vec.Vec3 {
	if d.Mass == 0 {
		return vec.Vec3{}
	}
	return d.M1.Scale(1 / d.Mass)
}

// Accumulator implements the Data abstraction for CentroidData.
type Accumulator struct{}

// FromLeaf implements tree.Accumulator.
func (Accumulator) FromLeaf(ps []particle.Particle, _ vec.Box) CentroidData {
	var d CentroidData
	for i := range ps {
		m := ps[i].Mass
		x := ps[i].Pos
		d.Mass += m
		d.M1 = d.M1.Add(x.Scale(m))
	}
	return d
}

// Empty implements tree.Accumulator.
func (Accumulator) Empty() CentroidData { return CentroidData{} }

// Add implements tree.Accumulator.
func (Accumulator) Add(a, b CentroidData) CentroidData {
	a.Mass += b.Mass
	a.M1 = a.M1.Add(b.M1)
	return a
}

// Codec serializes CentroidData (4 float64s, 32 bytes).
type Codec struct{}

// AppendData implements tree.DataCodec.
func (Codec) AppendData(dst []byte, d CentroidData) []byte {
	for _, v := range [4]float64{d.Mass, d.M1.X, d.M1.Y, d.M1.Z} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeData implements tree.DataCodec; a short buffer yields -1 so
// truncated fills surface as errors instead of panics.
func (Codec) DecodeData(b []byte) (CentroidData, int) {
	if len(b) < 32 {
		return CentroidData{}, -1
	}
	var f [4]float64
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return CentroidData{Mass: f[0], M1: vec.V(f[1], f[2], f[3])}, 32
}

// Params holds the force calculation parameters.
type Params struct {
	// G is the gravitational constant (1 in simulation units).
	G float64
	// Theta is the Barnes-Hut opening angle; smaller is more accurate.
	Theta float64
	// Soft is the Plummer softening length.
	Soft float64
}

// Validate reports parameters the solver would run with silently wrong
// answers: Theta must be finite and at least 0 (a NaN opens nothing, so
// the whole tree acts as one monopole; 0 is the exact mode, opening every
// node with mass), Soft finite and at least 0, and G finite.
func (p Params) Validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(p.Theta) || p.Theta < 0:
		return fmt.Errorf("gravity: theta %v: want a finite value of at least 0", p.Theta)
	case !finite(p.Soft) || p.Soft < 0:
		return fmt.Errorf("gravity: softening %v: want a finite value of at least 0", p.Soft)
	case !finite(p.G):
		return fmt.Errorf("gravity: G %v: want a finite value", p.G)
	}
	return nil
}

// DefaultParams returns G=1, theta=0.7, softening 1e-4.
func DefaultParams() Params {
	return Params{G: 1, Theta: 0.7, Soft: 1e-4}
}

// Visitor is the Barnes-Hut gravity visitor (the paper's Fig 7): a node is
// opened when its theta-scaled bounding sphere around the centroid
// intersects the target bucket's box; unopened nodes contribute their
// multipole approximation; leaves contribute exact pairwise forces.
//
// Visitor is generic over the node Data type D so applications that
// combine gravity with other per-node state (the planetesimal-disk case
// study pairs it with collision data) reuse it unchanged: Get extracts the
// CentroidData from D. Use New for the plain CentroidData instantiation.
type Visitor[D any] struct {
	P   Params
	Get func(d *D) *CentroidData
}

// New returns the standard gravity visitor over bare CentroidData.
func New(p Params) Visitor[CentroidData] {
	return Visitor[CentroidData]{P: p, Get: func(d *CentroidData) *CentroidData { return d }}
}

// sourceTerms is everything the opening test and the monopole kernel need
// that depends on the source node alone: computed once per Open call, once
// per frame in VisitSource.
type sourceTerms struct {
	c vec.Vec3 // centroid
	// rsq is the squared opening radius: the farthest corner distance from
	// the centroid, scaled by 1/theta (ChaNGa-style criterion). Negative
	// for a massless node, which never opens.
	rsq float64
	gm  float64 // G * mass
}

// terms computes source's sourceTerms.
//
//paratreet:hotpath
func (v Visitor[D]) terms(source *tree.Node[D]) (s sourceTerms) {
	d := v.Get(&source.Data)
	s.gm = v.P.G * d.Mass
	if d.Mass == 0 {
		s.rsq = -1
		return s
	}
	s.c = d.Centroid()
	s.rsq = source.Box.FarDistSq(s.c) / (v.P.Theta * v.P.Theta)
	return s
}

// Open implements traverse.Visitor.
//
//paratreet:hotpath
func (v Visitor[D]) Open(source *tree.Node[D], target *traverse.Bucket) bool {
	s := v.terms(source)
	return vec.SphereReaches(&target.Box, s.c, s.rsq)
}

// Node implements traverse.Visitor: the monopole approximation.
//
//paratreet:hotpath
func (v Visitor[D]) Node(source *tree.Node[D], target *traverse.Bucket) {
	d := v.Get(&source.Data)
	c, gm := d.Centroid(), v.P.G*d.Mass
	eps2 := v.P.Soft * v.P.Soft
	for i := range target.Particles {
		p := &target.Particles[i]
		dx := c.Sub(p.Pos)
		r2 := dx.NormSq() + eps2
		r := math.Sqrt(r2)
		inv3 := 1 / (r2 * r)
		p.Acc = p.Acc.Add(dx.Scale(gm * inv3))
		p.Potential -= gm / r
	}
}

// VisitSource implements traverse.SourceVisitor: the decisions and
// kernels of Open, Node and Leaf. Targets Pack packed (every Partition
// traversal, on every host) run visitPacked, which computes the source's
// terms once for all of active; buckets no Partition numbered (a caller's
// own) run Open, Node and Leaf per bucket.
//
//paratreet:hotpath
func (v Visitor[D]) VisitSource(source *tree.Node[D], buckets []*traverse.Bucket, active, opened []int32, leaf bool) []int32 {
	if len(active) > 0 {
		if t := buckets[active[0]].Targets; t != nil && t.Packed != nil {
			return v.visitPacked(source, t, active, opened, leaf)
		}
	}
	for _, bi := range active {
		b := buckets[bi]
		if !v.Open(source, b) {
			v.Node(source, b)
			continue
		}
		if leaf {
			v.Leaf(source, b)
		}
		opened = append(opened, bi)
	}
	return opened
}

// Leaf implements traverse.Visitor: exact pairwise interactions. The
// inner loop is pure value arithmetic — no allocation, enforced by the
// AllocsPerRun gate in gravity_alloc_test.go.
//
//paratreet:hotpath
func (v Visitor[D]) Leaf(source *tree.Node[D], target *traverse.Bucket) {
	eps2 := v.P.Soft * v.P.Soft
	for i := range target.Particles {
		p := &target.Particles[i]
		var acc vec.Vec3
		var pot float64
		for j := range source.Particles {
			s := &source.Particles[j]
			if s.ID == p.ID {
				continue
			}
			dx := s.Pos.Sub(p.Pos)
			r2 := dx.NormSq() + eps2
			r := math.Sqrt(r2)
			acc = acc.Add(dx.Scale(s.Mass / (r2 * r)))
			pot -= s.Mass / r
		}
		p.Acc = p.Acc.Add(acc.Scale(v.P.G))
		p.Potential += v.P.G * pot
	}
}

// Direct computes exact softened forces on every particle by O(N²)
// summation — the validation reference. Accelerations and potentials are
// overwritten.
func Direct(ps []particle.Particle, par Params) {
	eps2 := par.Soft * par.Soft
	particle.ResetAcc(ps)
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			dx := ps[j].Pos.Sub(ps[i].Pos)
			r2 := dx.NormSq() + eps2
			r := math.Sqrt(r2)
			inv3 := 1 / (r2 * r)
			ps[i].Acc = ps[i].Acc.Add(dx.Scale(par.G * ps[j].Mass * inv3))
			ps[j].Acc = ps[j].Acc.Add(dx.Scale(-par.G * ps[i].Mass * inv3))
			ps[i].Potential -= par.G * ps[j].Mass / r
			ps[j].Potential -= par.G * ps[i].Mass / r
		}
	}
}

// KineticEnergy returns Σ ½ m v².
func KineticEnergy(ps []particle.Particle) float64 {
	var e float64
	for i := range ps {
		e += 0.5 * ps[i].Mass * ps[i].Vel.NormSq()
	}
	return e
}

// PotentialEnergy returns ½ Σ m·Φ (each pair counted once).
func PotentialEnergy(ps []particle.Particle) float64 {
	var e float64
	for i := range ps {
		e += 0.5 * ps[i].Mass * ps[i].Potential
	}
	return e
}

// KickDrift advances positions and velocities one leapfrog step of size
// dt using the current accelerations (kick-drift form; call the force
// solver between steps).
func KickDrift(ps []particle.Particle, dt float64) {
	for i := range ps {
		ps[i].Vel = ps[i].Vel.Add(ps[i].Acc.Scale(dt))
		ps[i].Pos = ps[i].Pos.Add(ps[i].Vel.Scale(dt))
	}
}

// AccelError returns the relative acceleration error |a-ref|/|ref| for
// each particle (ref from a Direct run), useful for accuracy studies.
func AccelError(got, ref []particle.Particle) []float64 {
	errs := make([]float64, len(got))
	for i := range got {
		denom := ref[i].Acc.Norm()
		if denom == 0 {
			denom = 1
		}
		errs[i] = got[i].Acc.Sub(ref[i].Acc).Norm() / denom
	}
	return errs
}

// MedianError returns the median of errs.
func MedianError(errs []float64) float64 {
	if len(errs) == 0 {
		return 0
	}
	cp := make([]float64, len(errs))
	copy(cp, errs)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
