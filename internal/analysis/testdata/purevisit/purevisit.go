// Package purevisit exercises the Visitor purity contract: callbacks run
// concurrently across buckets on a shared visitor instance, so writes
// must stay per-call local, target-bucket (Node/Leaf only), atomic,
// lock-guarded, or waived.
package purevisit

import "sync"

type part struct {
	Pos, Acc float64
}

type node struct {
	Data      int
	visits    int
	Particles []part
}

type bucket struct {
	Particles []part
	State     any
}

type heapState struct {
	items []float64
}

func (h *heapState) push(x float64) {
	h.items = append(h.items, x)
}

var totalVisits int

var statsMu sync.Mutex
var stats int // guarded by statsMu

// goodVisitor exercises every allowed write shape: target particles from
// Node, per-bucket state from Leaf, locals, and a lock-guarded global.
type goodVisitor struct {
	cutoff int
}

func (v goodVisitor) Open(source *node, target *bucket) bool {
	return source.Data > v.cutoff
}

func (v goodVisitor) Node(source *node, target *bucket) {
	for i := range target.Particles {
		target.Particles[i].Acc += float64(source.Data)
	}
}

func (v goodVisitor) Leaf(source *node, target *bucket) {
	st := target.State.(*heapState)
	st.push(float64(source.Data))
	local := 0
	local++
	_ = local
	statsMu.Lock()
	stats++
	statsMu.Unlock()
}

// scratchVisitor writes fields of its value receiver — the method's own
// copy, not shared state.
type scratchVisitor struct {
	acc float64
}

func (v scratchVisitor) Node(source *node, target *bucket) {
	v.acc += float64(source.Data)
	_ = v.acc
}

func (v scratchVisitor) Leaf(source *node, target *bucket) {}

type recorder struct {
	mu   sync.Mutex
	n    int
	hits int
}

// record is clean to call from a visitor: its writes are lock-guarded.
func (r *recorder) record(x int) {
	r.mu.Lock()
	r.n += x
	r.mu.Unlock()
}

// markVisited writes through its parameter unguarded; callers passing
// source-derived state inherit the violation.
func markVisited(n *node) {
	n.visits++
}

// badVisitor exercises every forbidden write shape.
type badVisitor struct {
	rec *recorder
}

func (v badVisitor) Open(source *node, target *bucket) bool {
	source.visits++             // want `Open writes state reachable from the source node`
	target.Particles[0].Acc = 0 // want `Open must not mutate the target bucket`
	return source.Data > 0
}

func (v badVisitor) Node(source *node, target *bucket) {
	totalVisits++ // want `Node writes package-level state`
	v.rec.hits++  // want `Node writes visitor state shared across concurrent buckets`
}

func (v badVisitor) Leaf(source *node, target *bucket) {
	markVisited(source) // want `Leaf writes state reachable from the source node \(via call to markVisited\)`
	v.rec.record(1)
}

// ptrVisitor writes its own field through a pointer receiver — shared
// across every concurrent bucket.
type ptrVisitor struct {
	count int
}

func (v *ptrVisitor) Node(source *node, target *bucket) {
	v.count++ // want `Node writes visitor state shared across concurrent buckets`
}

func (v *ptrVisitor) Leaf(source *node, target *bucket) {}

type sink interface {
	consume(n *node)
}

type writingSink struct{}

func (writingSink) consume(n *node) {
	n.visits++
}

// ifaceVisitor leaks a source write through interface dispatch resolved
// to the in-package implementation.
type ifaceVisitor struct {
	out sink
}

func (v ifaceVisitor) Node(source *node, target *bucket) {
	v.out.consume(source) // want `Node writes state reachable from the source node \(via call to consume\)`
}

func (v ifaceVisitor) Leaf(source *node, target *bucket) {}

// countingVisitor's tally is waived: the count is only read after
// quiescence.
type countingVisitor struct{}

func (countingVisitor) Node(source *node, target *bucket) {
	//paratreet:allow(purevisit) tally is only read after WaitQuiescence, no concurrent reader
	totalVisits++
}

func (countingVisitor) Leaf(source *node, target *bucket) {}

// sourceVisitor is the source-major form done right: what depends on the
// source alone is computed once, buckets that do not open take the node
// kernel, opened ones take the leaf kernel only under the leaf flag.
type sourceVisitor struct {
	cutoff int
}

func (v sourceVisitor) applyNode(weight float64, target *bucket) {
	for i := range target.Particles {
		target.Particles[i].Acc += weight
	}
}

func (v sourceVisitor) Leaf(source *node, target *bucket) {
	target.Particles[0].Acc += float64(len(source.Particles))
}

func (v sourceVisitor) VisitSource(source *node, buckets []*bucket, active, opened []int32, leaf bool) []int32 {
	weight := float64(source.Data)
	for _, bi := range active {
		b := buckets[bi]
		if source.Data <= v.cutoff {
			v.applyNode(weight, b)
			continue
		}
		if leaf {
			v.Leaf(source, b)
		}
		opened = append(opened, bi)
	}
	return opened
}

// armsVisitor splits the same decision into if/else arms.
type armsVisitor struct{}

func (v armsVisitor) VisitSource(source *node, buckets []*bucket, active, opened []int32, leaf bool) []int32 {
	for _, bi := range active {
		if source.Data > 0 {
			opened = append(opened, bi)
		} else {
			buckets[bi].Particles[0].Acc++
		}
	}
	return opened
}

// badSourceVisitor exercises what the source-major form forbids.
type badSourceVisitor struct {
	rec *recorder
}

func (v badSourceVisitor) VisitSource(source *node, buckets []*bucket, active, opened []int32, leaf bool) []int32 {
	source.visits++ // want `VisitSource writes state reachable from the source node`
	active[0] = 0   // want `VisitSource writes the active list`
	v.rec.hits++    // want `VisitSource writes visitor state shared across concurrent buckets`
	for _, bi := range active {
		b := buckets[bi]
		b.Particles[0].Acc++ // want `VisitSource mutates a bucket it reports as opened`
		if source.Data > 0 {
			opened = append(opened, bi)
			sourceVisitor{}.applyNode(1, b) // want `VisitSource mutates a bucket it reports as opened \(via call to applyNode\)`
		}
	}
	return opened
}
