package gravity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// FuzzPackedKernels holds the kernel bodies to the per-pair calls, bit for
// bit: p2p, through packedKernels a chunk of sources at a time, against
// Leaf, and m2p against Node, the Go bodies on every host and the
// assembly too where the CPU has it. It runs n targets (0 to 40; the
// seeds reach every tail of a block of eight) and ns sources (0 to 140,
// past two chunks) with a handful of IDs, with zero softening among the
// choices. Half the points sit on a coarse lattice, so coincident
// positions, self-pairs and shared IDs are common; the rest lie anywhere
// in the unit cube, where a distance's three squares sum inexactly, so a
// body that adds them in another order changes bits. The source leaf's
// box, whose centre is p2p's origin, is drawn at random. The span starts
// at a random offset in a slab full of other targets, none of whose bits
// may change.
func FuzzPackedKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(0))
	f.Add(int64(2), uint8(0), uint8(5), uint8(1))
	f.Add(int64(3), uint8(7), uint8(0), uint8(11))
	f.Add(int64(4), uint8(40), uint8(40), uint8(23))
	f.Add(int64(5), uint8(3), uint8(1), uint8(35))
	f.Add(int64(6), uint8(9), uint8(64), uint8(2))
	f.Add(int64(7), uint8(18), uint8(65), uint8(13))
	f.Add(int64(8), uint8(36), uint8(140), uint8(28))
	f.Add(int64(9), uint8(13), uint8(129), uint8(4))
	f.Add(int64(10), uint8(14), uint8(100), uint8(15))
	f.Add(int64(11), uint8(31), uint8(17), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n8, ns8, mode uint8) {
		n, ns := int(n8%41), int(ns8%141)
		soft := [3]float64{0, 1e-4, 0.3}[mode%3]
		grav := [3]float64{1, 6.674e-11, -2}[mode/3%3]
		off := int(mode / 9 % 4)
		rng := rand.New(rand.NewSource(seed))
		pos := func() vec.Vec3 {
			if rng.Intn(2) == 0 {
				return vec.V(float64(rng.Intn(3))/2, float64(rng.Intn(3))/2, float64(rng.Intn(2)))
			}
			return vec.V(rng.Float64(), rng.Float64(), rng.Float64())
		}
		gen := func(k int) []particle.Particle {
			ps := make([]particle.Particle, k)
			for i := range ps {
				p := &ps[i]
				p.ID = int64(rng.Intn(6))
				p.Mass = float64(rng.Intn(4)) / 3
				p.Pos = pos()
				p.Acc = vec.V(rng.NormFloat64(), math.Copysign(0, -1), float64(rng.Intn(2)))
				p.Potential = -float64(rng.Intn(3))
			}
			return ps
		}
		targets, src := gen(n), gen(ns)
		stride := off + n + targetLanes + rng.Intn(3)
		slab := make([]float64, nCols*stride)
		c := columns(slab)
		for j, p := range gen(stride) {
			c.put(j, &p)
		}
		for i := range targets {
			c.put(off+i, &targets[i])
		}
		v := New(Params{G: grav, Theta: 0.7, Soft: soft})
		leaf := &tree.Node[CentroidData]{Particles: src, Box: vec.NewBox(pos(), pos())}
		leafWant := particle.Clone(targets)
		v.Leaf(leaf, &traverse.Bucket{Particles: leafWant})
		cm, mass := pos(), float64(rng.Intn(3))
		node := &tree.Node[CentroidData]{Data: CentroidData{Mass: mass, M1: cm.Scale(mass)}}
		s := v.terms(node)
		nodeWant := particle.Clone(leafWant)
		v.Node(node, &traverse.Bucket{Particles: nodeWant})

		defer func(prev bool) { useKernels = prev }(useKernels)
		for _, body := range kernelBodies() {
			useKernels = body.asm
			packed := slices.Clone(slab)
			check := func(kernel string, before []float64, want []particle.Particle) {
				t.Helper()
				after := columns(packed)
				for i := range want {
					got := particle.Particle{ID: want[i].ID}
					after.get(off+i, &got)
					if bits(got) != bits(want[i]) {
						t.Fatalf("%s %s target %d: body (%v, %v), per-pair (%v, %v)", body.name, kernel, i, got.Acc, got.Potential, want[i].Acc, want[i].Potential)
					}
					for col := colAX; col < nCols; col++ {
						before[col*stride+off+i] = after[col][off+i]
					}
				}
				if !slices.Equal(asBits(before), asBits(packed)) {
					t.Fatalf("%s %s wrote outside its %d targets at offset %d", body.name, kernel, n, off)
				}
			}
			k := packedKernels{packed: packed, stride: stride, eps2: float32(soft * soft)}
			r := span{off, off + n}
			before := slices.Clone(packed)
			var ls leafSlab
			ls.reset(src, &leaf.Box)
			k.p2p(&ls, grav, r)
			check("p2p", before, leafWant)

			before = slices.Clone(packed)
			k.m2p(&s, r)
			check("m2p", before, nodeWant)
		}
	})
}

// TestP2PSubULPPair runs two particles 1e-9 apart, in a leaf centred
// 0.25 away, at Soft 0: their float32 offsets from the centre coincide,
// so r2 is 0 and f is infinite. Every body skips the pair, as it does a
// particle and itself, and leaves the accumulators finite, with Leaf's
// bits.
func TestP2PSubULPPair(t *testing.T) {
	src := []particle.Particle{
		{ID: 1, Mass: 1, Pos: vec.V(0.5, 0.5, 0.5)},
		{ID: 2, Mass: 1, Pos: vec.V(0.5+1e-9, 0.5, 0.5)},
	}
	leaf := &tree.Node[CentroidData]{Particles: src, Box: vec.NewBox(vec.V(0, 0, 0), vec.V(0.5, 0.5, 0.5))}
	v := New(Params{G: 1, Theta: 0.7, Soft: 0})
	want := particle.Clone(src)
	v.Leaf(leaf, &traverse.Bucket{Particles: want})
	for _, p := range want {
		if p.Acc != (vec.Vec3{}) || p.Potential != 0 {
			t.Fatalf("Leaf on particle %d: acc %v, potential %v, want zeros", p.ID, p.Acc, p.Potential)
		}
	}

	defer func(prev bool) { useKernels = prev }(useKernels)
	for _, body := range kernelBodies() {
		useKernels = body.asm
		stride := len(src) + targetLanes
		packed := make([]float64, nCols*stride)
		c := columns(packed)
		for i := range src {
			c.put(i, &src[i])
		}
		k := packedKernels{packed: packed, stride: stride}
		var ls leafSlab
		ls.reset(src, &leaf.Box)
		k.p2p(&ls, v.P.G, span{0, len(src)})
		for i := range want {
			got := particle.Particle{ID: want[i].ID}
			c.get(i, &got)
			if bits(got) != bits(want[i]) {
				t.Errorf("%s p2p target %d: (%v, %v), Leaf (%v, %v)", body.name, i, got.Acc, got.Potential, want[i].Acc, want[i].Potential)
			}
		}
	}
}

// kernelBody is one set of kernel bodies: the Go bodies, or the assembly
// where the CPU has it. asm is the useKernels that runs it.
type kernelBody struct {
	name  string
	asm   bool
	reach func(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8)
}

// kernelBodies returns the Go bodies, and the assembly too where the CPU
// has it.
func kernelBodies() []kernelBody {
	bodies := []kernelBody{{"go", false, reachGo}}
	if useKernels {
		bodies = append(bodies, kernelBody{Kernels(), true, reach})
	}
	return bodies
}

// asBits reinterprets floats as their bits, so NaNs compare equal.
func asBits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// FuzzReach holds the reach kernel to vec.SphereReaches, entry by entry:
// the Go body on every host, and the assembly too where the CPU has it.
// Box corners and centres are drawn from a few coordinates — signed
// zeros, NaN and ±Inf among them — so centres sit on faces and corners,
// and boxes include EmptyBox, point boxes and boxes empty or NaN on one
// axis; rsq is −1, 0, finite, +Inf or NaN; active lists of 0 to 40
// entries (every tail) run ascending, descending or at random with
// repeats. Bits past the last entry must stay clear and bytes past its
// group untouched.
func FuzzReach(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(7), uint8(12))
	f.Add(int64(4), uint8(38), uint8(22))
	f.Add(int64(5), uint8(40), uint8(41))
	f.Add(int64(12), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n8, mode uint8) {
		n := int(n8 % 41)
		rng := rand.New(rand.NewSource(seed))
		inf, nan := math.Inf(1), math.NaN()
		values := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, -1, 1e-160, 1e200, nan, inf, -inf}
		coord := func() float64 {
			if rng.Intn(8) == 0 {
				return values[rng.Intn(len(values))]
			}
			return values[rng.Intn(6)]
		}
		point := func() vec.Vec3 { return vec.V(coord(), coord(), coord()) }

		boxes := make([]vec.Box, 1+rng.Intn(12))
		for i := range boxes {
			switch rng.Intn(5) {
			case 0:
				boxes[i] = vec.EmptyBox()
			case 1:
				p := point()
				boxes[i] = vec.Box{Min: p, Max: p}
			case 2:
				boxes[i] = vec.Box{Min: point(), Max: point()}
			default:
				boxes[i] = vec.NewBox(point(), point())
			}
		}
		c := point()
		if rng.Intn(2) == 0 {
			b := boxes[rng.Intn(len(boxes))]
			corner := [2]vec.Vec3{b.Min, b.Max}
			c = vec.V(corner[rng.Intn(2)].X, corner[rng.Intn(2)].Y, corner[rng.Intn(2)].Z)
		}
		rsq := [...]float64{-1, 0, 0.25, 1, 3, inf, nan, 1e300}[mode%8]

		nb := len(boxes)
		active := make([]int32, n)
		for i := range active {
			switch mode / 8 % 3 {
			case 0:
				active[i] = int32(i % nb)
			case 1:
				active[i] = int32(nb - 1 - i%nb)
			default:
				active[i] = int32(rng.Intn(nb))
			}
		}
		cols := make([]float64, 6*nb)
		for bi, b := range boxes {
			for col, x := range [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
				cols[col*nb+bi] = x
			}
		}
		groups := (n + lanes - 1) / lanes
		for _, k := range kernelBodies() {
			open := make([]uint8, groups+2)
			for i := range open {
				open[i] = 0xa5
			}
			k.reach(&cols[0], nb, unsafe.SliceData(active), n, c.X, c.Y, c.Z, rsq, &open[0])
			for i, bi := range active {
				got := open[i/lanes]>>(i%lanes)&1 != 0
				if want := vec.SphereReaches(&boxes[bi], c, rsq); got != want {
					t.Fatalf("%s: entry %d (bucket %d, box %v) centre %v rsq %v: reach %v, SphereReaches %v", k.name, i, bi, boxes[bi], c, rsq, got, want)
				}
			}
			if groups > 0 && open[groups-1]>>(n-(groups-1)*lanes) != 0 {
				t.Fatalf("%s: n %d: bits past the last entry set in %08b", k.name, n, open[groups-1])
			}
			if open[groups] != 0xa5 || open[groups+1] != 0xa5 {
				t.Fatalf("%s: n %d: reach wrote past its %d groups", k.name, n, groups)
			}
		}
	})
}
