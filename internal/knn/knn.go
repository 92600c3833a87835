// Package knn implements k-nearest-neighbor search over spatial trees,
// one of the paper's motivating applications (§I) and the first stage of
// every SPH iteration (§III-B). Each target particle keeps a bounded
// max-heap of candidate neighbors; the search radius shrinks as the heap
// fills, so the up-and-down traversal prunes almost the entire tree.
package knn

import (
	"encoding/binary"
	"math"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// Data is the per-node Data for neighbor searches: only the particle count
// (the box comes with the node). k-d trees "prefer nodes with children
// that are uniform in particle count" — the count is what a smarter
// visitor would consult.
type Data struct {
	N int
}

// Accumulator implements the Data abstraction for Data.
type Accumulator struct{}

// FromLeaf implements tree.Accumulator.
func (Accumulator) FromLeaf(ps []particle.Particle, _ vec.Box) Data { return Data{N: len(ps)} }

// Empty implements tree.Accumulator.
func (Accumulator) Empty() Data { return Data{} }

// Add implements tree.Accumulator.
func (Accumulator) Add(a, b Data) Data { return Data{N: a.N + b.N} }

// Codec serializes Data.
type Codec struct{}

// AppendData implements tree.DataCodec.
func (Codec) AppendData(dst []byte, d Data) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(d.N))
}

// DecodeData implements tree.DataCodec; a short buffer yields -1 so
// truncated fills surface as errors instead of panics.
func (Codec) DecodeData(b []byte) (Data, int) {
	if len(b) < 8 {
		return Data{}, -1
	}
	return Data{N: int(binary.LittleEndian.Uint64(b))}, 8
}

// Neighbor is one entry of a particle's neighbor list.
type Neighbor struct {
	DistSq float64
	ID     int64
	Pos    vec.Vec3
	Mass   float64
}

// heap is a bounded max-heap of neighbors ordered by DistSq, so the root
// is the current k-th nearest candidate.
type heap struct {
	k     int
	items []Neighbor
}

//paratreet:hotpath
func (h *heap) full() bool { return len(h.items) >= h.k }

// bound returns the current search radius squared: +Inf until k candidates
// are held, then the k-th smallest distance.
//
//paratreet:hotpath
func (h *heap) bound() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.items[0].DistSq
}

// push inserts a candidate, evicting the current k-th nearest when full.
// Attach pre-sizes items to capacity k, so push never allocates — the
// property the AllocsPerRun gate in knn_alloc_test.go enforces.
//
//paratreet:hotpath
func (h *heap) push(n Neighbor) {
	if h.full() {
		if n.DistSq >= h.items[0].DistSq {
			return
		}
		h.items[0] = n
		h.siftDown(0)
		return
	}
	h.items = append(h.items, n)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].DistSq >= h.items[i].DistSq {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

//paratreet:hotpath
func (h *heap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.items[l].DistSq > h.items[big].DistSq {
			big = l
		}
		if r < n && h.items[r].DistSq > h.items[big].DistSq {
			big = r
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

// State is the per-bucket search state: one heap per target particle.
type State struct {
	Heaps []heap
}

// Attach initializes kNN state on every bucket; call before launching the
// traversal. Heap storage is preallocated to capacity k so the search
// kernel never touches the allocator. A State already attached to a bucket
// (a prior iteration over retained buckets) is reset and reused; all the
// buckets without one share three slabs — states, heaps, heap entries —
// so a call allocates three times, not once per particle.
func Attach(buckets []*traverse.Bucket, k int) {
	nstates, nheaps := 0, 0
	for _, b := range buckets {
		if !reusable(b, k) {
			nstates++
			nheaps += len(b.Particles)
		}
	}
	states := make([]State, nstates)
	heaps := make([]heap, nheaps)
	items := make([]Neighbor, nheaps*k)
	for _, b := range buckets {
		n := len(b.Particles)
		if reusable(b, k) {
			st := b.State.(*State)
			st.Heaps = st.Heaps[:n]
			for i := range st.Heaps {
				st.Heaps[i] = heap{k: k, items: st.Heaps[i].items[:0]}
			}
			continue
		}
		st := &states[0]
		states = states[1:]
		st.Heaps, heaps = heaps[:n:n], heaps[n:]
		for i := range st.Heaps {
			// Capped at k: a heap never grows into its neighbour's entries.
			st.Heaps[i] = heap{k: k, items: items[:0:k]}
			items = items[k:]
		}
		b.State = st
	}
}

// reusable reports whether b already carries a State with room for its
// particles at capacity k.
func reusable(b *traverse.Bucket, k int) bool {
	st, ok := b.State.(*State)
	if !ok || cap(st.Heaps) < len(b.Particles) {
		return false
	}
	for _, h := range st.Heaps[:len(b.Particles)] {
		if cap(h.items) < k {
			return false
		}
	}
	return true
}

// maxBound returns the largest current search radius over the bucket's
// particles — the bucket-level pruning bound.
func (s *State) maxBound() float64 {
	max := 0.0
	for i := range s.Heaps {
		if b := s.Heaps[i].bound(); b > max {
			if math.IsInf(b, 1) {
				return b
			}
			max = b
		}
	}
	return max
}

// openByBounds is the Open decision shared by Visitor and GenericVisitor:
// descend when the source box is closer to some target particle than that
// particle's current k-th neighbor.
//
//paratreet:hotpath
func openByBounds(source vec.Box, target *traverse.Bucket) bool {
	st := target.State.(*State)
	// Cheap bucket-level rejection: no point inside the target box can be
	// within the loosest per-particle bound of the source box when
	// dist(box, center) > maxRadius + farthest(center within bucket).
	if mb := st.maxBound(); !math.IsInf(mb, 1) {
		lim := math.Sqrt(mb) + math.Sqrt(target.Box.FarDistSq(target.Box.Center()))
		if source.DistSq(target.Box.Center()) > lim*lim {
			return false
		}
	}
	for i := range target.Particles {
		if source.DistSq(target.Particles[i].Pos) < st.Heaps[i].bound() {
			return true
		}
	}
	return false
}

// leafInteract tries every source particle against every target heap, the
// exact interaction shared by Visitor and GenericVisitor.
//
//paratreet:hotpath
func leafInteract(source []particle.Particle, target *traverse.Bucket, excludeSelf bool) {
	st := target.State.(*State)
	for i := range target.Particles {
		p := &target.Particles[i]
		h := &st.Heaps[i]
		for j := range source {
			s := &source[j]
			if excludeSelf && s.ID == p.ID {
				continue
			}
			d2 := s.Pos.DistSq(p.Pos)
			if d2 < h.bound() {
				h.push(Neighbor{DistSq: d2, ID: s.ID, Pos: s.Pos, Mass: s.Mass})
			}
		}
	}
}

// Visitor performs the k-nearest-neighbor search. Excluding the target
// particle itself is standard (ExcludeSelf).
type Visitor struct {
	K           int
	ExcludeSelf bool
}

// Open implements traverse.Visitor: descend when the node's box is closer
// to some target particle than that particle's current k-th neighbor.
func (v Visitor) Open(source *tree.Node[Data], target *traverse.Bucket) bool {
	if source.Data.N == 0 {
		return false
	}
	return openByBounds(source.Box, target)
}

// Node implements traverse.Visitor: an unopened node contributes nothing.
func (v Visitor) Node(source *tree.Node[Data], target *traverse.Bucket) {}

// Leaf implements traverse.Visitor: try every source particle against
// every target heap.
//
//paratreet:hotpath
func (v Visitor) Leaf(source *tree.Node[Data], target *traverse.Bucket) {
	leafInteract(source.Particles, target, v.ExcludeSelf)
}

// GenericVisitor runs the same k-nearest-neighbor search over a tree
// whose node Data is not knn.Data — e.g. the serve subsystem's resident
// collision tree, where one tree answers kNN, range, and probe queries.
// Count extracts the subtree particle count used for empty-node pruning;
// search state and results still live in the bucket's *State (Attach).
type GenericVisitor[D any] struct {
	ExcludeSelf bool
	Count       func(d *D) int
}

// Open implements traverse.Visitor; see Visitor.Open.
func (v GenericVisitor[D]) Open(source *tree.Node[D], target *traverse.Bucket) bool {
	if v.Count(&source.Data) == 0 {
		return false
	}
	return openByBounds(source.Box, target)
}

// Node implements traverse.Visitor: an unopened node contributes nothing.
func (v GenericVisitor[D]) Node(source *tree.Node[D], target *traverse.Bucket) {}

// Leaf implements traverse.Visitor; see Visitor.Leaf.
//
//paratreet:hotpath
func (v GenericVisitor[D]) Leaf(source *tree.Node[D], target *traverse.Bucket) {
	leafInteract(source.Particles, target, v.ExcludeSelf)
}

// Neighbors returns particle i's found neighbors (unsorted).
func (s *State) Neighbors(i int) []Neighbor { return s.Heaps[i].items }

// Radius returns the distance to particle i's farthest found neighbor,
// i.e. the smoothing length 2h context SPH uses.
func (s *State) Radius(i int) float64 {
	if len(s.Heaps[i].items) == 0 {
		return 0
	}
	return math.Sqrt(s.Heaps[i].items[0].DistSq)
}

// BruteForce computes the exact k nearest neighbors of each target in ps
// from the same set, the validation reference.
func BruteForce(ps []particle.Particle, k int, excludeSelf bool) [][]Neighbor {
	out := make([][]Neighbor, len(ps))
	for i := range ps {
		h := heap{k: k}
		for j := range ps {
			if excludeSelf && ps[j].ID == ps[i].ID {
				continue
			}
			d2 := ps[j].Pos.DistSq(ps[i].Pos)
			if d2 < h.bound() {
				h.push(Neighbor{DistSq: d2, ID: ps[j].ID, Pos: ps[j].Pos, Mass: ps[j].Mass})
			}
		}
		out[i] = h.items
	}
	return out
}
