// Package knn implements k-nearest-neighbor search over spatial trees,
// one of the paper's motivating applications (§I) and the first stage of
// every SPH iteration (§III-B). Each target particle keeps a bounded
// max-heap of candidate neighbors; the search radius shrinks as the heap
// fills, so the up-and-down traversal prunes almost the entire tree.
package knn

import (
	"encoding/binary"
	"fmt"
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

// heap is a bounded max-heap of neighbors ordered by (DistSq, ID), so the
// root is the current k-th nearest candidate. Ordering ties by ID makes the
// k held the k smallest by that order whatever order candidates arrive in:
// a search's answer does not depend on which leaf it visited first.
type heap struct {
	k     int
	items []Neighbor
}

// closer reports whether a precedes b in the heap order: nearer, or as
// near with a smaller ID.
//
//paratreet:hotpath
func closer(a, b *Neighbor) bool {
	return a.DistSq < b.DistSq || (a.DistSq == b.DistSq && a.ID < b.ID)
}

//paratreet:hotpath
func (h *heap) full() bool { return len(h.items) >= h.k }

// bound returns the current search radius squared: +Inf until k candidates
// are held, then the k-th smallest distance. A candidate exactly at the
// bound may still enter, displacing a larger ID.
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
// property the AllocsPerRun gate in knn_alloc_test.go enforces. Both
// directions move a hole rather than swapping: each step copies one entry
// instead of two, with the comparisons (and so the item order) of the
// textbook swap.
//
//paratreet:hotpath
func (h *heap) push(n Neighbor) {
	if h.full() {
		if !closer(&n, &h.items[0]) {
			return
		}
		h.siftDown(n)
		return
	}
	i := len(h.items)
	h.items = append(h.items, n)
	for i > 0 {
		parent := (i - 1) / 2
		if !closer(&h.items[parent], &n) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = n
}

// siftDown replaces the root with n and restores the heap order.
//
//paratreet:hotpath
func (h *heap) siftDown(n Neighbor) {
	items := h.items
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big, far := i, &n
		if l < len(items) && closer(far, &items[l]) {
			big, far = l, &items[l]
		}
		if r < len(items) && closer(far, &items[r]) {
			big = r
		}
		if big == i {
			break
		}
		items[i] = items[big]
		i = big
	}
	items[i] = n
}

// State is the per-bucket search state: one heap per target particle,
// plus the bucket-level pruning bound derived from them. reach is the
// distance from the bucket box's center to its farthest corner, fixed at
// Attach; limSq is (sqrt(maxBound)+reach)², +Inf while some heap is not
// full. Only leafInteract mutates the heaps, and it refreshes limSq after
// any push, so both stay valid until the next Leaf or Attach.
type State struct {
	Heaps []heap
	reach float64
	limSq float64
}

// arena is the heap storage of one run of target particles: particle i of
// the run owns heaps[i] and the stride entries from items[i*stride].
type arena struct {
	stride int
	heaps  []heap
	items  []Neighbor
}

// fit makes room for n particles at k neighbours each. It regrows when n
// or k outgrows the arena, and lets a larger arena go when n·k falls below
// a quarter of it (the rule particle.Sorter.Reset follows), so a shrinking
// partition or a smaller k does not keep the peak alive.
func (a *arena) fit(n, k int) {
	if k <= a.stride && n <= len(a.heaps) && 4*n*k >= len(a.items) {
		return
	}
	a.stride = k
	a.heaps = make([]heap, n)
	a.items = make([]Neighbor, n*k)
}

// Attach initializes kNN state on every bucket, each heap empty with
// capacity k so the search kernel never touches the allocator; call before
// launching the traversal.
//
// When every bucket belongs to one Partition (they share a non-nil
// Targets), the heaps come from an arena the Partition keeps across steps
// in Targets.State: a bucket's heaps are those of particles [Offset,
// Offset+n) of the partition's run, so each step carves the same storage
// again and the only allocation left is the call's State headers. Being
// indexed by particle, not by call order, two calls on disjoint subsets of
// one partition never overlap. Any other bucket set (per-query buckets)
// gets a one-off arena. Either way, a State stays valid until the next
// Attach over the same particles.
//
// Attach panics when k < 1: a search for no neighbours has no bound to
// prune by.
func Attach(buckets []*traverse.Bucket, k int) {
	if k < 1 {
		panic(fmt.Sprintf("knn: Attach with k = %d, want k >= 1", k))
	}
	t := traverse.SharedTargets(buckets)
	var a *arena
	if t != nil {
		if a, _ = t.State.(*arena); a == nil {
			a = &arena{}
			t.State = a
		}
		a.fit(t.N, k)
	} else {
		n := 0
		for _, b := range buckets {
			n += len(b.Particles)
		}
		a = &arena{}
		a.fit(n, k)
	}
	states := make([]State, len(buckets))
	off := 0
	for i, b := range buckets {
		n := len(b.Particles)
		if t != nil {
			off = b.Offset
		}
		st := &states[i]
		st.Heaps = a.heaps[off : off+n : off+n]
		for j := range st.Heaps {
			// Capped at k: a heap never grows into its neighbour's entries.
			lo := (off + j) * a.stride
			st.Heaps[j] = heap{k: k, items: a.items[lo : lo : lo+k]}
		}
		st.reach = math.Sqrt(b.Box.FarDistSq(b.Box.Center()))
		st.refresh()
		b.State = st
		off += n
	}
}

// refresh recomputes limSq from the heaps: no point inside the bucket box
// can be within the loosest per-particle bound of a source box when
// dist(source, center) > sqrt(maxBound) + reach, maxBound being the largest
// search radius (squared) over the bucket's particles.
func (s *State) refresh() {
	maxBound := 0.0
	for i := range s.Heaps {
		if b := s.Heaps[i].bound(); b > maxBound {
			if math.IsInf(b, 1) {
				s.limSq = b
				return
			}
			maxBound = b
		}
	}
	lim := math.Sqrt(maxBound) + s.reach
	s.limSq = lim * lim
}

// openByBounds is the Open decision shared by Visitor and GenericVisitor:
// descend when the source box is no farther from some target particle than
// that particle's current k-th neighbor (a particle exactly at the bound
// may hold a smaller ID).
//
//paratreet:hotpath
func openByBounds(source vec.Box, target *traverse.Bucket) bool {
	st := target.State.(*State)
	// Cheap bucket-level rejection against the cached limit (+Inf, never
	// rejecting, until every heap is full).
	if source.DistSq(target.Box.Center()) > st.limSq {
		return false
	}
	for i := range target.Particles {
		if source.DistSq(target.Particles[i].Pos) <= st.Heaps[i].bound() {
			return true
		}
	}
	return false
}

// leafInteract tries every source particle against every target heap, the
// exact interaction shared by Visitor and GenericVisitor. A target's bound
// only changes when its heap takes a candidate, so it is reloaded then and
// otherwise held in a local; the bucket's limit is refreshed once at the
// end, and only when some heap changed.
//
//paratreet:hotpath
func leafInteract(source []particle.Particle, target *traverse.Bucket, excludeSelf bool) {
	st := target.State.(*State)
	pushed := false
	for i := range target.Particles {
		p := &target.Particles[i]
		h := &st.Heaps[i]
		bound := h.bound()
		for j := range source {
			s := &source[j]
			if excludeSelf && s.ID == p.ID {
				continue
			}
			if d2 := s.Pos.DistSq(p.Pos); d2 <= bound {
				h.push(Neighbor{DistSq: d2, ID: s.ID, Pos: s.Pos, Mass: s.Mass})
				bound = h.bound()
				pushed = true
			}
		}
	}
	if pushed {
		st.refresh()
	}
}

// Visitor performs the k-nearest-neighbor search. Excluding the target
// particle itself is standard (ExcludeSelf).
type Visitor struct {
	K           int
	ExcludeSelf bool
}

// Open implements traverse.Visitor: descend when the node's box is no
// farther from some target particle than that particle's current k-th
// neighbor.
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

// VisitSource implements traverse.SourceVisitor: the decisions and kernels
// of Open and Leaf, with the empty-source test made once for all of
// active. An unopened bucket takes nothing, as Node is empty.
//
//paratreet:hotpath
func (v Visitor) VisitSource(source *tree.Node[Data], buckets []*traverse.Bucket, active, opened []int32, leaf bool) []int32 {
	if source.Data.N == 0 {
		return opened
	}
	for _, bi := range active {
		b := buckets[bi]
		if !openByBounds(source.Box, b) {
			continue
		}
		if leaf {
			leafInteract(source.Particles, b, v.ExcludeSelf)
		}
		opened = append(opened, bi)
	}
	return opened
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

// VisitSource implements traverse.SourceVisitor; see Visitor.VisitSource.
//
//paratreet:hotpath
func (v GenericVisitor[D]) VisitSource(source *tree.Node[D], buckets []*traverse.Bucket, active, opened []int32, leaf bool) []int32 {
	if v.Count(&source.Data) == 0 {
		return opened
	}
	for _, bi := range active {
		b := buckets[bi]
		if !openByBounds(source.Box, b) {
			continue
		}
		if leaf {
			leafInteract(source.Particles, b, v.ExcludeSelf)
		}
		opened = append(opened, bi)
	}
	return opened
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
// from the same set, ties broken by the smaller ID as in the search: the
// validation reference.
func BruteForce(ps []particle.Particle, k int, excludeSelf bool) [][]Neighbor {
	out := make([][]Neighbor, len(ps))
	for i := range ps {
		h := heap{k: k}
		for j := range ps {
			if excludeSelf && ps[j].ID == ps[i].ID {
				continue
			}
			d2 := ps[j].Pos.DistSq(ps[i].Pos)
			if d2 <= h.bound() {
				h.push(Neighbor{DistSq: d2, ID: ps[j].ID, Pos: ps[j].Pos, Mass: ps[j].Mass})
			}
		}
		out[i] = h.items
	}
	return out
}
