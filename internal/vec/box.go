package vec

import (
	"fmt"
	"math"
)

// Box is an axis-aligned bounding box. An empty box (one that contains no
// points) is represented with Min components +Inf and Max components -Inf,
// which EmptyBox returns; growing an empty box by a point yields the
// degenerate box at that point.
type Box struct {
	Min, Max Vec3
}

// EmptyBox returns a box containing no points, suitable as the identity for
// Grow and Union.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{
		Min: Vec3{inf, inf, inf},
		Max: Vec3{-inf, -inf, -inf},
	}
}

// NewBox returns the box spanning the two corner points in any order.
func NewBox(a, b Vec3) Box {
	return Box{Min: a.Min(b), Max: a.Max(b)}
}

// UnitBox returns the box [0,1]³.
func UnitBox() Box { return Box{Min: Vec3{}, Max: Vec3{1, 1, 1}} }

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Grow returns the smallest box containing b and the point p.
func (b Box) Grow(p Vec3) Box {
	return Box{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both boxes.
func (b Box) Union(o Box) Box {
	return Box{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Center returns the midpoint of the box.
func (b Box) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Dims returns the edge lengths of the box.
func (b Box) Dims() Vec3 { return b.Max.Sub(b.Min) }

// Volume returns the volume of the box; empty boxes have volume 0.
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	d := b.Dims()
	return d.X * d.Y * d.Z
}

// LongestDim returns the index (0=X, 1=Y, 2=Z) of the longest edge.
func (b Box) LongestDim() int {
	d := b.Dims()
	dim := 0
	longest := d.X
	if d.Y > longest {
		dim, longest = 1, d.Y
	}
	if d.Z > longest {
		dim = 2
	}
	return dim
}

// Contains reports whether p lies inside the box (inclusive bounds).
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Contains(o.Min) && b.Contains(o.Max)
}

// Intersects reports whether the two boxes overlap (touching counts).
func (b Box) Intersects(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// DistSq returns the squared distance from p to the closest point of the box
// (0 when p is inside).
func (b Box) DistSq(p Vec3) float64 {
	// One dimension after the other, no loop: this runs once per (node,
	// particle) pair of every neighbour search.
	var d2 float64
	if p.X < b.Min.X {
		d := b.Min.X - p.X
		d2 += d * d
	} else if p.X > b.Max.X {
		d := p.X - b.Max.X
		d2 += d * d
	}
	if p.Y < b.Min.Y {
		d := b.Min.Y - p.Y
		d2 += d * d
	} else if p.Y > b.Max.Y {
		d := p.Y - b.Max.Y
		d2 += d * d
	}
	if p.Z < b.Min.Z {
		d := b.Min.Z - p.Z
		d2 += d * d
	} else if p.Z > b.Max.Z {
		d := p.Z - b.Max.Z
		d2 += d * d
	}
	return d2
}

// BoxDistSq returns the squared minimum distance between two boxes
// (0 when they overlap).
func (b Box) BoxDistSq(o Box) float64 {
	var d2 float64
	for dim := 0; dim < 3; dim++ {
		gap := 0.0
		if o.Min.Component(dim) > b.Max.Component(dim) {
			gap = o.Min.Component(dim) - b.Max.Component(dim)
		} else if b.Min.Component(dim) > o.Max.Component(dim) {
			gap = b.Min.Component(dim) - o.Max.Component(dim)
		}
		d2 += gap * gap
	}
	return d2
}

// FarDistSq returns the squared distance from p to the farthest point of the
// box.
func (b Box) FarDistSq(p Vec3) float64 {
	var d2 float64
	for dim := 0; dim < 3; dim++ {
		v := p.Component(dim)
		lo, hi := b.Min.Component(dim), b.Max.Component(dim)
		d := math.Max(math.Abs(v-lo), math.Abs(v-hi))
		d2 += d * d
	}
	return d2
}

// IntersectsSphere reports whether the sphere with center c and squared
// radius rsq overlaps the box. This is the standard open() criterion test.
func (b Box) IntersectsSphere(c Vec3, rsq float64) bool {
	return SphereReaches(&b, c, rsq)
}

// SphereReaches is IntersectsSphere on a box read in place, for loops that
// test one sphere against many stored boxes (an opening criterion against a
// frame's buckets): there, copying each box through IntersectsSphere and
// DistSq costs as much as the compare. Same operations in the same order as
// DistSq, so the same decision.
func SphereReaches(b *Box, c Vec3, rsq float64) bool {
	if b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z {
		return false
	}
	var d2 float64
	if c.X < b.Min.X {
		d := b.Min.X - c.X
		d2 += d * d
	} else if c.X > b.Max.X {
		d := c.X - b.Max.X
		d2 += d * d
	}
	if c.Y < b.Min.Y {
		d := b.Min.Y - c.Y
		d2 += d * d
	} else if c.Y > b.Max.Y {
		d := c.Y - b.Max.Y
		d2 += d * d
	}
	if c.Z < b.Min.Z {
		d := b.Min.Z - c.Z
		d2 += d * d
	} else if c.Z > b.Max.Z {
		d := c.Z - b.Max.Z
		d2 += d * d
	}
	return d2 <= rsq
}

// Octant returns the index in [0,8) of the octant of the box's center that
// contains p: bit 0 set if p.X >= center.X, bit 1 for Y, bit 2 for Z.
func (b Box) Octant(p Vec3) int {
	c := b.Center()
	oct := 0
	if p.X >= c.X {
		oct |= 1
	}
	if p.Y >= c.Y {
		oct |= 2
	}
	if p.Z >= c.Z {
		oct |= 4
	}
	return oct
}

// OctantBox returns the box of octant oct (as indexed by Octant).
func (b Box) OctantBox(oct int) Box {
	c := b.Center()
	out := b
	if oct&1 != 0 {
		out.Min.X = c.X
	} else {
		out.Max.X = c.X
	}
	if oct&2 != 0 {
		out.Min.Y = c.Y
	} else {
		out.Max.Y = c.Y
	}
	if oct&4 != 0 {
		out.Min.Z = c.Z
	} else {
		out.Max.Z = c.Z
	}
	return out
}

// SplitAt returns the two halves of the box split at value v along dimension
// dim; lo receives the points with component < v.
func (b Box) SplitAt(dim int, v float64) (lo, hi Box) {
	lo, hi = b, b
	lo.Max = lo.Max.WithComponent(dim, v)
	hi.Min = hi.Min.WithComponent(dim, v)
	return lo, hi
}

// Cubed returns the smallest cube centered on the box's center that contains
// the box. Octrees use cubical root boxes so octants keep aspect ratio 1.
func (b Box) Cubed() Box {
	if b.IsEmpty() {
		return b
	}
	d := b.Dims()
	half := math.Max(d.X, math.Max(d.Y, d.Z)) / 2
	c := b.Center()
	h := Vec3{half, half, half}
	return Box{Min: c.Sub(h), Max: c.Add(h)}
}

// Pad returns the box expanded by a factor eps of its dimensions on every
// side, used to keep boundary particles strictly interior.
func (b Box) Pad(eps float64) Box {
	d := b.Dims().Scale(eps)
	return Box{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}

// String implements fmt.Stringer.
func (b Box) String() string { return fmt.Sprintf("[%v .. %v]", b.Min, b.Max) }

// Sphere is a center plus squared radius, the shape of the Barnes-Hut
// opening-criterion ball around a node's centroid.
type Sphere struct {
	Center Vec3
	RSq    float64
}

// Intersects reports whether the sphere overlaps the box.
func (s Sphere) Intersects(b Box) bool { return b.IntersectsSphere(s.Center, s.RSq) }

// ContainsPoint reports whether p lies inside the sphere.
func (s Sphere) ContainsPoint(p Vec3) bool { return s.Center.DistSq(p) <= s.RSq }
