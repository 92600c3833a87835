package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecArithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != (Vec3{-1, -2, -3}) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := Vec3{0, 0, 1}
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(x); got != z.Neg() {
		t.Errorf("y cross x = %v, want -z", got)
	}
	// a x a == 0
	a := Vec3{3, -2, 7}
	if got := a.Cross(a); got != (Vec3{}) {
		t.Errorf("a cross a = %v, want 0", got)
	}
}

func TestNormAndDist(t *testing.T) {
	a := Vec3{3, 4, 0}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", a.Norm())
	}
	if a.NormSq() != 25 {
		t.Errorf("NormSq = %v, want 25", a.NormSq())
	}
	b := Vec3{3, 4, 12}
	if d := b.Dist(Vec3{}); d != 13 {
		t.Errorf("Dist = %v, want 13", d)
	}
	n := b.Normalized()
	if !almostEq(n.Norm(), 1, 1e-14) {
		t.Errorf("Normalized norm = %v, want 1", n.Norm())
	}
	if (Vec3{}).Normalized() != (Vec3{}) {
		t.Error("Normalized zero vector should stay zero")
	}
}

func TestComponentAccess(t *testing.T) {
	a := Vec3{1, 2, 3}
	for d, want := range []float64{1, 2, 3} {
		if got := a.Component(d); got != want {
			t.Errorf("Component(%d) = %v, want %v", d, got, want)
		}
	}
	for d := 0; d < 3; d++ {
		b := a.WithComponent(d, 9)
		if b.Component(d) != 9 {
			t.Errorf("WithComponent(%d) did not set", d)
		}
		for o := 0; o < 3; o++ {
			if o != d && b.Component(o) != a.Component(o) {
				t.Errorf("WithComponent(%d) disturbed component %d", d, o)
			}
		}
	}
}

func TestMinMaxFinite(t *testing.T) {
	a := Vec3{1, 5, 3}
	b := Vec3{2, 4, 3}
	if got := a.Min(b); got != (Vec3{1, 4, 3}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != (Vec3{2, 5, 3}) {
		t.Errorf("Max = %v", got)
	}
	if !a.IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestEmptyBox(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	if e.Volume() != 0 {
		t.Error("empty box volume != 0")
	}
	if e.Contains(Vec3{}) {
		t.Error("empty box contains origin")
	}
	g := e.Grow(Vec3{1, 2, 3})
	if g.IsEmpty() {
		t.Error("grown box still empty")
	}
	if g.Min != g.Max || g.Min != (Vec3{1, 2, 3}) {
		t.Errorf("grow of empty box = %v", g)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(Vec3{2, 3, 4}, Vec3{0, 1, 2})
	if b.Min != (Vec3{0, 1, 2}) || b.Max != (Vec3{2, 3, 4}) {
		t.Fatalf("NewBox corner ordering wrong: %v", b)
	}
	if b.Center() != (Vec3{1, 2, 3}) {
		t.Errorf("Center = %v", b.Center())
	}
	if b.Dims() != (Vec3{2, 2, 2}) {
		t.Errorf("Dims = %v", b.Dims())
	}
	if b.Volume() != 8 {
		t.Errorf("Volume = %v", b.Volume())
	}
	if !b.Contains(b.Center()) || !b.Contains(b.Min) || !b.Contains(b.Max) {
		t.Error("box should contain its center and corners")
	}
	if b.Contains(Vec3{-1, 2, 3}) {
		t.Error("box contains external point")
	}
}

func TestLongestDim(t *testing.T) {
	cases := []struct {
		box  Box
		want int
	}{
		{NewBox(Vec3{}, Vec3{3, 1, 1}), 0},
		{NewBox(Vec3{}, Vec3{1, 3, 1}), 1},
		{NewBox(Vec3{}, Vec3{1, 1, 3}), 2},
		{NewBox(Vec3{}, Vec3{2, 2, 2}), 0}, // ties go to lowest dim
	}
	for i, c := range cases {
		if got := c.box.LongestDim(); got != c.want {
			t.Errorf("case %d: LongestDim = %d, want %d", i, got, c.want)
		}
	}
}

func TestBoxIntersects(t *testing.T) {
	a := NewBox(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	b := NewBox(Vec3{0.5, 0.5, 0.5}, Vec3{2, 2, 2})
	c := NewBox(Vec3{2, 2, 2}, Vec3{3, 3, 3})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping boxes reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint boxes reported overlapping")
	}
	// Touching counts as intersecting.
	d := NewBox(Vec3{1, 0, 0}, Vec3{2, 1, 1})
	if !a.Intersects(d) {
		t.Error("touching boxes should intersect")
	}
	if a.Intersects(EmptyBox()) || EmptyBox().Intersects(a) {
		t.Error("empty box should not intersect")
	}
}

func TestContainsBox(t *testing.T) {
	outer := NewBox(Vec3{0, 0, 0}, Vec3{4, 4, 4})
	inner := NewBox(Vec3{1, 1, 1}, Vec3{2, 2, 2})
	if !outer.ContainsBox(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsBox(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.ContainsBox(EmptyBox()) {
		t.Error("any box contains the empty box")
	}
}

func TestDistSq(t *testing.T) {
	b := NewBox(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	if d := b.DistSq(Vec3{0.5, 0.5, 0.5}); d != 0 {
		t.Errorf("inside point DistSq = %v", d)
	}
	if d := b.DistSq(Vec3{2, 0.5, 0.5}); d != 1 {
		t.Errorf("DistSq = %v, want 1", d)
	}
	if d := b.DistSq(Vec3{2, 2, 0.5}); d != 2 {
		t.Errorf("DistSq = %v, want 2", d)
	}
	// FarDistSq from origin corner of unit box is the opposite corner.
	if d := b.FarDistSq(Vec3{0, 0, 0}); d != 3 {
		t.Errorf("FarDistSq = %v, want 3", d)
	}
	if b.FarDistSq(Vec3{0.5, 0.5, 0.5}) != 0.75 {
		t.Errorf("FarDistSq center = %v, want 0.75", b.FarDistSq(Vec3{0.5, 0.5, 0.5}))
	}
}

func TestIntersectsSphere(t *testing.T) {
	b := NewBox(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	if !b.IntersectsSphere(Vec3{0.5, 0.5, 0.5}, 0.01) {
		t.Error("sphere inside box should intersect")
	}
	if !b.IntersectsSphere(Vec3{1.5, 0.5, 0.5}, 0.25) {
		t.Error("sphere touching face should intersect")
	}
	if b.IntersectsSphere(Vec3{3, 3, 3}, 1) {
		t.Error("distant sphere should not intersect")
	}
	s := Sphere{Center: Vec3{1.5, 0.5, 0.5}, RSq: 0.25}
	if !s.Intersects(b) {
		t.Error("Sphere.Intersects disagrees with Box.IntersectsSphere")
	}
	if !s.ContainsPoint(Vec3{1.5, 0.5, 0.5}) {
		t.Error("sphere should contain its center")
	}
	if s.ContainsPoint(Vec3{3, 3, 3}) {
		t.Error("sphere should not contain distant point")
	}
}

// TestSphereReachesIsDistSq pins the in-place test to DistSq, which it
// spells out again: the same squared distance, to the bit — including on
// the boundary rsq == DistSq — and never for an empty box.
func TestSphereReachesIsDistSq(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pt := func() Vec3 { return Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1} }
	for i := 0; i < 5000; i++ {
		b, c := NewBox(pt(), pt()), pt()
		d2 := b.DistSq(c)
		for _, rsq := range []float64{d2, math.Nextafter(d2, -1), d2 * rng.Float64() * 2, -1} {
			if got, want := SphereReaches(&b, c, rsq), d2 <= rsq; got != want {
				t.Fatalf("box %v sphere (%v, %v): SphereReaches %v, DistSq %v", b, c, rsq, got, d2)
			}
		}
	}
	empty := EmptyBox()
	if SphereReaches(&empty, Vec3{}, math.Inf(1)) || empty.IntersectsSphere(Vec3{}, math.Inf(1)) {
		t.Error("an empty box intersects nothing")
	}
}

func TestOctants(t *testing.T) {
	b := NewBox(Vec3{0, 0, 0}, Vec3{2, 2, 2})
	// Every octant box should contain points that map to its index, and the
	// eight octants should partition the volume.
	var total float64
	for oct := 0; oct < 8; oct++ {
		ob := b.OctantBox(oct)
		total += ob.Volume()
		c := ob.Center()
		if got := b.Octant(c); got != oct {
			t.Errorf("Octant(center of octant %d) = %d", oct, got)
		}
		if !b.ContainsBox(ob) {
			t.Errorf("octant %d escapes parent", oct)
		}
	}
	if total != b.Volume() {
		t.Errorf("octant volumes sum to %v, want %v", total, b.Volume())
	}
}

func TestSplitAt(t *testing.T) {
	b := NewBox(Vec3{0, 0, 0}, Vec3{4, 2, 2})
	lo, hi := b.SplitAt(0, 1)
	if lo.Max.X != 1 || hi.Min.X != 1 {
		t.Errorf("SplitAt boundaries wrong: %v | %v", lo, hi)
	}
	if lo.Volume()+hi.Volume() != b.Volume() {
		t.Error("split volumes don't sum")
	}
}

func TestCubed(t *testing.T) {
	b := NewBox(Vec3{0, 0, 0}, Vec3{4, 2, 1})
	c := b.Cubed()
	d := c.Dims()
	if d.X != d.Y || d.Y != d.Z || d.X != 4 {
		t.Errorf("Cubed dims = %v, want (4,4,4)", d)
	}
	if c.Center() != b.Center() {
		t.Error("Cubed moved the center")
	}
	if !c.ContainsBox(b) {
		t.Error("Cubed box should contain original")
	}
	if !EmptyBox().Cubed().IsEmpty() {
		t.Error("Cubed of empty box should stay empty")
	}
}

func TestPad(t *testing.T) {
	b := NewBox(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	p := b.Pad(0.01)
	if !p.ContainsBox(b) {
		t.Error("padded box should contain original")
	}
	if p.Dims().X <= b.Dims().X {
		t.Error("pad did not expand")
	}
}

// Property: Grow never shrinks a box and always contains the grown point.
func TestGrowProperty(t *testing.T) {
	f := func(px, py, pz, qx, qy, qz float64) bool {
		if math.IsNaN(px) || math.IsNaN(py) || math.IsNaN(pz) ||
			math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(qz) {
			return true
		}
		b := EmptyBox().Grow(Vec3{px, py, pz})
		p := Vec3{qx, qy, qz}
		g := b.Grow(p)
		return g.Contains(p) && g.ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DistSq(p) == 0 iff Contains(p) for random boxes/points.
func TestDistSqContainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		b := NewBox(
			Vec3{rng.Float64(), rng.Float64(), rng.Float64()},
			Vec3{rng.Float64(), rng.Float64(), rng.Float64()},
		)
		p := Vec3{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5}
		if (b.DistSq(p) == 0) != b.Contains(p) {
			t.Fatalf("DistSq/Contains disagree for box %v point %v", b, p)
		}
	}
}

// Property: Octant and OctantBox agree for random points.
func TestOctantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBox(Vec3{-1, -1, -1}, Vec3{1, 1, 1})
	for i := 0; i < 1000; i++ {
		p := Vec3{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		oct := b.Octant(p)
		if !b.OctantBox(oct).Contains(p) {
			t.Fatalf("point %v assigned octant %d but octant box %v does not contain it",
				p, oct, b.OctantBox(oct))
		}
	}
}

func TestUnion(t *testing.T) {
	a := NewBox(Vec3{0, 0, 0}, Vec3{1, 1, 1})
	b := NewBox(Vec3{2, 2, 2}, Vec3{3, 3, 3})
	u := a.Union(b)
	if !u.ContainsBox(a) || !u.ContainsBox(b) {
		t.Error("union should contain both")
	}
	if u.Union(EmptyBox()) != u {
		t.Error("union with empty should be identity")
	}
}

func TestStrings(t *testing.T) {
	if s := (Vec3{1, 2, 3}).String(); s == "" {
		t.Error("empty Vec3 string")
	}
	if s := UnitBox().String(); s == "" {
		t.Error("empty Box string")
	}
}
