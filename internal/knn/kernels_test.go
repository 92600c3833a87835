package knn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"paratreet/internal/cpu"
	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/vec"
)

// kernelBody is one set of kNN kernel bodies: the Go bodies, or the
// assembly where the CPU has it.
type kernelBody struct {
	name   string
	filter func(c *float64, stride, n int, sx, sy, sz float64, sid int64, self uint64, d2 *[chunk]float64) uint64
	open   func(c *float64, n int, box *vec.Box) bool
}

// kernelBodies returns the Go bodies, and the assembly too where the CPU
// has it: then filter and open run it.
func kernelBodies() []kernelBody {
	bodies := []kernelBody{{"go", filterGo, openGo}}
	if cpu.AVX2 {
		bodies = append(bodies, kernelBody{"avx2", filter, open})
	}
	return bodies
}

// block writes targets into a fresh block of columns of the given stride
// (their count or more) from place off, with bounds and IDs beside them,
// and fills every other entry and the padding past the block with junk
// that no result may read: NaN, a bound of +Inf, an ID that matches.
func block(stride, off int, pos []vec.Vec3, ids []int64, bounds []float64, junk float64) []float64 {
	cols := make([]float64, nCols*stride+lanes-1)
	for i := range cols {
		cols[i] = junk
	}
	for i, p := range pos {
		j := off + i
		cols[colX*stride+j], cols[colY*stride+j], cols[colZ*stride+j] = p.X, p.Y, p.Z
		cols[colID*stride+j] = math.Float64frombits(uint64(ids[i]))
		cols[colBound*stride+j] = bounds[i]
	}
	return cols
}

// FuzzKNNKernels holds both kernel bodies to the per-pair tests they
// replace, decision for decision: the Go bodies on every host, and the
// assembly too where the CPU has it. The filter's survivor bits must be
// the scalar filter's (ID exclusion included) with each survivor's
// distance the bits of Vec3.DistSq, and no bit past the last target; the
// open test must be the scalar any-target test over the block, and over
// each target alone. Targets number 0 to 40 (every tail of a four-lane
// block), their coordinates drawn from a few values — signed zeros, NaN,
// ±Inf, tiny and huge among them — or anywhere in the unit cube, with
// few IDs, so self-pairs are common; bounds are +Inf, 0, NaN, finite or a
// source's exact distance; boxes include EmptyBox, point boxes and boxes
// empty or NaN on one axis. The filter runs on a span that starts at an
// offset in a wider block, as it does on the chunks of a large bucket;
// every entry outside the span, and the padding, holds junk.
func FuzzKNNKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0))
	f.Add(int64(2), uint8(0), uint8(5))
	f.Add(int64(3), uint8(1), uint8(11))
	f.Add(int64(4), uint8(2), uint8(23))
	f.Add(int64(5), uint8(3), uint8(35))
	f.Add(int64(6), uint8(5), uint8(2))
	f.Add(int64(7), uint8(39), uint8(13))
	f.Add(int64(8), uint8(40), uint8(28))
	f.Fuzz(func(t *testing.T, seed int64, n8, mode uint8) {
		n := int(n8 % 41)
		rng := rand.New(rand.NewSource(seed))
		inf, nan := math.Inf(1), math.NaN()
		values := []float64{0, math.Copysign(0, -1), 0.5, 1, -1, 1e-160, 1e200, nan, inf, -inf}
		coord := func() float64 {
			if rng.Intn(4) < int(mode%4) {
				return values[rng.Intn(len(values))]
			}
			if rng.Intn(2) == 0 {
				return float64(rng.Intn(3)) / 2
			}
			return rng.Float64()
		}
		point := func() vec.Vec3 { return vec.V(coord(), coord(), coord()) }
		pos, ids, bounds := make([]vec.Vec3, n), make([]int64, n), make([]float64, n)
		for i := range pos {
			pos[i], ids[i] = point(), int64(rng.Intn(4))-1
		}
		sources := make([]vec.Vec3, 1+rng.Intn(6))
		for i := range sources {
			sources[i] = point()
			if n > 0 && rng.Intn(3) == 0 {
				sources[i] = pos[rng.Intn(n)]
			}
		}
		for i := range bounds {
			switch rng.Intn(6) {
			case 0:
				bounds[i] = inf
			case 1:
				bounds[i] = 0
			case 2:
				bounds[i] = nan
			case 3:
				bounds[i] = sources[rng.Intn(len(sources))].DistSq(pos[i])
			default:
				bounds[i] = rng.Float64()
			}
		}
		junk := [...]float64{nan, inf, 0, math.Float64frombits(^uint64(0))}[mode/4%4] // the last: ID −1's bits

		// The filter, on targets [off, off+n) of a block of stride.
		off := rng.Intn(5)
		stride := off + n + rng.Intn(3)
		cols := block(stride, off, pos, ids, bounds, junk)
		before := append([]float64(nil), cols...)
		for _, k := range kernelBodies() {
			for _, s := range sources {
				sid := int64(rng.Intn(4)) - 1
				self := [2]uint64{0, ^uint64(0)}[rng.Intn(2)]
				var d2 [chunk]float64
				for i := range d2 {
					d2[i] = -7
				}
				got := k.filter(&cols[off], stride, n, s.X, s.Y, s.Z, sid, self, &d2)
				for i := range n {
					want := s.DistSq(pos[i])
					pass := want <= bounds[i] && !(self != 0 && ids[i] == sid)
					if got>>i&1 != 0 != pass {
						t.Fatalf("%s: source %v (ID %d, self %v) target %d at %v (ID %d) bound %v: survivor %v, scalar %v",
							k.name, s, sid, self != 0, i, pos[i], ids[i], bounds[i], !pass, pass)
					}
					if pass && math.Float64bits(d2[i]) != math.Float64bits(want) {
						t.Fatalf("%s: source %v target %d at %v: distance %v, Vec3.DistSq %v", k.name, s, i, pos[i], d2[i], want)
					}
				}
				if n < chunk && got>>n != 0 {
					t.Fatalf("%s: n %d: survivor bits past the last target in %#x", k.name, n, got)
				}
				for i := (n + lanes - 1) / lanes * lanes; i < chunk; i++ {
					if d2[i] != -7 {
						t.Fatalf("%s: n %d: distance %d written past the last block", k.name, n, i)
					}
				}
			}
		}
		for i := range cols {
			if math.Float64bits(cols[i]) != math.Float64bits(before[i]) {
				t.Fatalf("filter wrote column entry %d", i)
			}
		}

		// The open test, on a whole block and on each target alone.
		box := func() vec.Box {
			switch rng.Intn(5) {
			case 0:
				return vec.EmptyBox()
			case 1:
				p := point()
				return vec.Box{Min: p, Max: p}
			case 2:
				return vec.Box{Min: point(), Max: point()}
			default:
				return vec.NewBox(point(), point())
			}
		}
		anyWithin := func(b *vec.Box, lo, hi int) bool {
			for i := lo; i < hi; i++ {
				if b.DistSq(pos[i]) <= bounds[i] {
					return true
				}
			}
			return false
		}
		whole := block(n, 0, pos, ids, bounds, junk)
		for range 4 {
			b := box()
			for _, k := range kernelBodies() {
				if got, want := k.open(unsafe.SliceData(whole), n, &b), anyWithin(&b, 0, n); got != want {
					t.Fatalf("%s: box %v over %d targets: open %v, scalar %v", k.name, b, n, got, want)
				}
				for i := range n {
					one := block(1, 0, pos[i:i+1], ids[i:i+1], bounds[i:i+1], junk)
					if got, want := k.open(&one[0], 1, &b), anyWithin(&b, i, i+1); got != want {
						t.Fatalf("%s: box %v target %d at %v bound %v: open %v, scalar %v", k.name, b, i, pos[i], bounds[i], got, want)
					}
				}
			}
		}
	})
}

// leafScalar is leafInteract as the per-pair loop it replaces: each target
// in turn meets every source, tested by Vec3.DistSq against its heap's
// bound. It leaves the columns alone.
func leafScalar(source []particle.Particle, b *traverse.Bucket, excludeSelf bool) {
	st := b.State.(*State)
	for i := range b.Particles {
		p, h := &b.Particles[i], &st.Heaps[i]
		for j := range source {
			s := &source[j]
			if excludeSelf && s.ID == p.ID {
				continue
			}
			if d2 := s.Pos.DistSq(p.Pos); d2 <= h.bound() {
				h.push(Neighbor{DistSq: d2, ID: s.ID, Pos: s.Pos, Mass: s.Mass})
			}
		}
	}
}

// TestColumnsTrackHeaps runs leafInteract and the per-pair loop side by
// side over a partition's buckets, among them buckets of more targets
// than one filter call tests (65, 150: two and three chunks) and of one
// target, against source leaves of 1 to 80 particles in random order,
// with ties common (a coarse lattice). Every heap must take the per-pair
// loop's entries in its order; afterwards each bucket's columns must hold
// its particles' positions and IDs and each heap's bound, and its cached
// limit must be one recomputed from its heaps. A second Attach with a
// larger k, which regrows the arena, must start every bound at +Inf again.
func TestColumnsTrackHeaps(t *testing.T) {
	sizes := []int{150, 1, 64, 65, 3, 17}
	total := 0
	for _, n := range sizes {
		total += n
	}
	rng := rand.New(rand.NewSource(3))
	ps := make([]particle.Particle, total)
	for i := range ps {
		ps[i].ID = int64(i)
		ps[i].Pos = vec.V(float64(rng.Intn(9))/8, float64(rng.Intn(9))/8, float64(rng.Intn(5))/4)
		ps[i].Mass = 1
	}
	for _, excludeSelf := range []bool{true, false} {
		var kernTargets, refTargets traverse.Targets
		kern, ref := partitionBuckets(&kernTargets, particle.Clone(ps), sizes...), partitionBuckets(&refTargets, particle.Clone(ps), sizes...)
		for _, k := range []int{8, 40} {
			Attach(kern, k)
			Attach(ref, k)
			for _, b := range kern {
				st := b.State.(*State)
				for i, bound := range st.columns()[colBound*len(b.Particles):] {
					if !math.IsInf(bound, 1) {
						t.Fatalf("k %d: after Attach, bound %d is %v, want +Inf", k, i, bound)
					}
				}
			}
			for round := 0; round < 60; round++ {
				lo := rng.Intn(total)
				source := ps[lo : lo+1+rng.Intn(min(80, total-lo))]
				for bi := range kern {
					leafInteract(source, kern[bi], excludeSelf)
					leafScalar(source, ref[bi], excludeSelf)
				}
			}
			for bi, b := range kern {
				st, want := b.State.(*State), ref[bi].State.(*State)
				n := len(b.Particles)
				c := st.columns()
				for i := range b.Particles {
					p, h := &b.Particles[i], &st.Heaps[i]
					if !slices.Equal(h.items, want.Heaps[i].items) {
						t.Fatalf("exclude %v k %d bucket %d target %d: heap %v, per-pair %v", excludeSelf, k, bi, i, h.items, want.Heaps[i].items)
					}
					got := [nCols]float64{c[colX*n+i], c[colY*n+i], c[colZ*n+i], c[colID*n+i], c[colBound*n+i]}
					if got != [nCols]float64{p.Pos.X, p.Pos.Y, p.Pos.Z, math.Float64frombits(uint64(p.ID)), h.bound()} {
						t.Fatalf("exclude %v k %d bucket %d target %d: columns %v, particle at %v ID %d bound %v",
							excludeSelf, k, bi, i, got, p.Pos, p.ID, h.bound())
					}
				}
				if fresh := freshLimSq(st, b.Box); st.limSq != fresh {
					t.Fatalf("exclude %v k %d bucket %d: cached limit %v, recomputed %v", excludeSelf, k, bi, st.limSq, fresh)
				}
			}
		}
	}
}

// TestStateSizeClass: Attach allocates a State per bucket every step, so
// reaching the columns must not take it past the 48-byte size class.
func TestStateSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(State{}); size > 48 {
		t.Errorf("State is %d bytes, want at most 48", size)
	}
}

// TestSiftSignedIDs: the branch-free sift orders IDs as signed integers,
// as closer does, so negative IDs — FuzzHeap draws none — tie-break before
// positive ones. Few distances make ties the rule; after every push the
// heap must hold the swap-based reference's entries in its order.
func TestSiftSignedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 2, 5, 16} {
		h := heap{k: k, items: make([]Neighbor, 0, k)}
		ref := swapHeap{k: k}
		for i := 0; i < 400; i++ {
			n := Neighbor{DistSq: float64(rng.Intn(3)), ID: rng.Int63n(1<<62) - 1<<61}
			if rng.Intn(4) == 0 {
				n.ID = [...]int64{math.MinInt64, -1, 0, math.MaxInt64}[rng.Intn(4)]
			}
			h.push(n)
			ref.push(n)
			if !slices.Equal(h.items, ref.items) {
				t.Fatalf("k %d after push %d: heap %v, swap reference %v", k, i, h.items, ref.items)
			}
		}
	}
}
