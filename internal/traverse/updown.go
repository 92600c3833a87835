package traverse

import (
	"paratreet/internal/cache"
	"paratreet/internal/rt"
	"paratreet/internal/tree"
)

// NewUpDown constructs the up-and-down traversal of buckets (§II-A2): for
// each bucket, the global tree is explored outward from the bucket's own
// leaf — at every ancestor on the leaf-to-root path, the ancestor's other
// children are traversed top-down. Because near nodes are visited first,
// visitors with shrinking pruning criteria (k-nearest neighbors, SPH
// neighbor finding) prune most of the tree.
//
// It is the per-bucket Traversal with different seeds: per bucket, one
// frame per off-path subtree, pushed root-side first so the LIFO stack
// processes leaf-adjacent subtrees earliest, and finally a frame for the
// bucket's own home leaf. Like every per-bucket seed, a bucket's path is
// pushed only when the scheduler has finished the buckets before it.
func NewUpDown[D any, V Visitor[D]](proc *rt.Proc, c *cache.Cache[D], viewID int, buckets []*Bucket, visitor V, onDone func()) *Traversal[D] {
	return NewTopDown(proc, c, viewID, buckets, visitor, upDown, onDone)
}

// seedPath pushes the off-path sibling frames along the root-to-leaf path
// of the key of the bucket in active, ending with the bucket's own leaf.
// Path nodes that are remote are pushed as ordinary frames (the engine
// pauses there and, once fetched, Open/descend handles the rest).
//
//paratreet:coldpath
func (t *Traversal[D]) seedPath(node *tree.Node[D], active []int32) {
	logB := t.cache.TreeType().LogB()
	key := t.buckets[active[0]].Key
	level := tree.KeyLevel(key, logB)
	for node != nil {
		if node.Key == key || node.Kind().IsLeaf() || !node.Kind().HasData() {
			// Reached the bucket's own leaf, a coarser leaf containing it,
			// or a remote segment of the path: one frame covers the rest.
			t.push(frame[D, []int32]{node: node, parent: node.Parent, childIdx: node.ChildIndex(logB), work: active})
			return
		}
		d := level - node.Level - 1
		pathIdx := int(key>>(uint(d)*logB)) & (1<<logB - 1)
		for i := 0; i < node.NumChildren(); i++ {
			if i == pathIdx {
				continue
			}
			if c := node.Child(i); c != nil {
				t.push(frame[D, []int32]{node: c, parent: node, childIdx: i, work: active})
			}
		}
		node = node.Child(pathIdx)
	}
}
