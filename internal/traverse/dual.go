package traverse

import (
	"sort"
	"sync/atomic"

	"paratreet/internal/cache"
	"paratreet/internal/rt"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// CellAction is the outcome of DualVisitor.Cell for a (source node, target
// group) pair, the paper's cell() decision: when evaluating two nodes with
// B children each, open both (B² sub-interactions) or keep the target and
// open only the source (B sub-interactions) — or prune / approximate.
type CellAction int

const (
	// CellPrune skips the pair entirely.
	CellPrune CellAction = iota
	// CellApprox applies Node to every bucket of the target group.
	CellApprox
	// CellOpenSource descends the source, keeping the target group whole.
	CellOpenSource
	// CellOpenTarget splits the target group, keeping the source node.
	CellOpenTarget
	// CellOpenBoth descends the source and splits the target group.
	CellOpenBoth
)

// DualVisitor drives a dual-tree traversal. Cell is evaluated on
// (source node, target-group bounding box); Node and Leaf apply
// approximate/exact interactions to individual buckets as in Visitor.
type DualVisitor[D any] interface {
	Cell(source *tree.Node[D], targetBox vec.Box) CellAction
	Node(source *tree.Node[D], target *Bucket)
	Leaf(source *tree.Node[D], target *Bucket)
}

// targetGroup is a node of the implicit binary tree over the partition's
// buckets, built by median splits of bucket centers.
type targetGroup struct {
	box      vec.Box
	buckets  []int32
	children [2]*targetGroup
}

// buildTargetGroups builds the target hierarchy over the buckets.
func buildTargetGroups(buckets []*Bucket, idx []int32, leafSize int) *targetGroup {
	g := &targetGroup{buckets: idx, box: vec.EmptyBox()}
	for _, bi := range idx {
		g.box = g.box.Union(buckets[bi].Box)
	}
	if len(idx) <= leafSize {
		return g
	}
	dim := g.box.LongestDim()
	sorted := make([]int32, len(idx))
	copy(sorted, idx)
	sort.Slice(sorted, func(a, b int) bool {
		return buckets[sorted[a]].Box.Center().Component(dim) <
			buckets[sorted[b]].Box.Center().Component(dim)
	})
	mid := len(sorted) / 2
	g.children[0] = buildTargetGroups(buckets, sorted[:mid], leafSize)
	g.children[1] = buildTargetGroups(buckets, sorted[mid:], leafSize)
	return g
}

// Dual is an in-flight dual-tree traversal: the scheduler's frames pair a
// source node with a target group.
type Dual[D any, V DualVisitor[D]] struct {
	sched[D, *targetGroup]
	visitor V
	buckets []*Bucket
	root    *targetGroup

	// CellCalls counts Cell evaluations, for pruning diagnostics.
	CellCalls atomic.Int64
}

// NewDual constructs a dual-tree traversal over buckets. groupLeafSize
// bounds the bucket count of target-group leaves (typical: 4).
func NewDual[D any, V DualVisitor[D]](proc *rt.Proc, c *cache.Cache[D], viewID int, buckets []*Bucket, visitor V, groupLeafSize int, onDone func()) *Dual[D, V] {
	if groupLeafSize <= 0 {
		groupLeafSize = 4
	}
	idx := make([]int32, len(buckets))
	for i := range idx {
		idx[i] = int32(i)
	}
	d := &Dual[D, V]{visitor: visitor, buckets: buckets, root: buildTargetGroups(buckets, idx, groupLeafSize)}
	d.init(proc, c, viewID, d, onDone)
	return d
}

// refill seeds the one frame there is: (view root, all buckets).
//
//paratreet:coldpath
func (d *Dual[D, V]) refill() bool {
	g := d.root
	if g == nil || len(g.buckets) == 0 {
		return false
	}
	d.root = nil
	d.push(frame[D, *targetGroup]{node: d.cache.Root(d.viewID), work: g})
	return true
}

func (d *Dual[D, V]) release() {}

//paratreet:hotpath
func (d *Dual[D, V]) eval(f frame[D, *targetGroup]) {
	n, group := f.node, f.work
	kind := n.Kind()
	if kind == tree.KindRemote {
		d.pause(f)
		return
	}
	d.CellCalls.Add(1)
	action := d.visitor.Cell(n, group.box)
	switch action {
	case CellPrune:
		d.prunes++

	case CellApprox:
		d.prunes++
		for _, bi := range group.buckets {
			d.visitor.Node(n, d.buckets[bi])
		}

	default:
		d.opens++
		openSource := action == CellOpenSource || action == CellOpenBoth
		openTarget := action == CellOpenTarget || action == CellOpenBoth
		if kind == tree.KindEmptyLeaf {
			break
		}
		if kind == tree.KindRemoteLeaf {
			// Need particles for exact interaction.
			d.pause(f)
			return
		}
		if kind.IsLeaf() {
			if openTarget && group.children[0] != nil {
				for _, g := range group.children {
					f.work = g
					d.push(f)
				}
			} else {
				for _, bi := range group.buckets {
					d.visitor.Leaf(n, d.buckets[bi])
				}
			}
			break
		}
		// Internal source. Every non-prune, non-approx action must make
		// progress: if the target group cannot split, descend the source
		// instead (always a valid refinement).
		canSplit := group.children[0] != nil
		if openTarget && !canSplit {
			openTarget, openSource = false, true
		}
		groups := group.children[:]
		if !openTarget {
			groups = []*targetGroup{group}
		}
		for _, g := range groups {
			if openSource {
				for i := 0; i < n.NumChildren(); i++ {
					if c := n.Child(i); c != nil {
						d.push(frame[D, *targetGroup]{node: c, parent: n, childIdx: i, work: g})
					}
				}
			} else {
				f.work = g
				d.push(f)
			}
		}
	}
	if isCachedRemote(kind) {
		d.hits++
	}
}
