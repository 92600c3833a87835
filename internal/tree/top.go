package tree

import (
	"fmt"
	"sort"

	"paratreet/internal/vec"
)

// RootSummary is the broadcast description of one Subtree's root — the
// "global root and a user-specified number of its descendants" that every
// process receives before traversal begins. It carries enough state (box,
// count, encoded Data) for open() to be evaluated on the subtree root
// without communication.
type RootSummary struct {
	// Key is the subtree root's global tree key.
	Key uint64
	// Owner is the rank of the process holding the subtree.
	Owner int32
	// IsLeaf reports whether the subtree root is itself a leaf bucket.
	IsLeaf bool
	// Box bounds the subtree.
	Box vec.Box
	// NParticles counts the subtree's particles.
	NParticles int
	// Data is the codec-encoded accumulated Data of the subtree root.
	Data []byte
	// Tree optionally carries the serialized top ShareDepth levels of the
	// subtree (the paper's "number of branch nodes shared across all
	// processors" hyperparameter): receivers splice the whole piece instead
	// of a lone summary node, trading broadcast volume for fewer remote
	// requests during traversal.
	Tree []byte
}

// Summarize builds the RootSummary of a local subtree root.
func Summarize[D any](n *Node[D], codec DataCodec[D]) RootSummary {
	return SummarizeDepth(n, codec, 0)
}

// SummarizeDepth builds a RootSummary that proactively shares shareDepth
// levels of the subtree below its root (0 shares only the root's state).
// A leaf at RootKey is the whole global tree and always ships with its
// particles: a view's root has no parent slot for a fill to land in, so it
// must never be a remote placeholder.
func SummarizeDepth[D any](n *Node[D], codec DataCodec[D], shareDepth int) RootSummary {
	s := RootSummary{
		Key:        n.Key,
		Owner:      n.Owner,
		IsLeaf:     n.Kind().IsLeaf(),
		Box:        n.Box,
		NParticles: n.NParticles,
		Data:       codec.AppendData(nil, n.Data),
	}
	if shareDepth > 0 || (s.IsLeaf && n.Key == RootKey) {
		s.Tree = SerializeSubtree(n, shareDepth, codec)
	}
	return s
}

// BuildTop constructs a process's view of the top of the global tree: every
// ancestor of the given subtree roots, with each root either spliced in
// from localRoots (this process's own subtrees, found via the hash table of
// Fig 2) or represented by a data-bearing remote node. The summary keys
// must form a complete, prefix-free cover of the root (every leaf of the
// implied partition tree is exactly one summary).
//
// Top internal nodes get Data by folding their children with acc, Owner -1,
// and boxes/counts from their children, so traversals prune on them exactly
// as on ordinary nodes.
func BuildTop[D any](sums []RootSummary, t Type, localRoots map[uint64]*Node[D], codec DataCodec[D], acc Accumulator[D]) (*Node[D], error) {
	if len(sums) == 0 {
		return nil, fmt.Errorf("tree: BuildTop with no summaries")
	}
	logB := t.LogB()
	sorted := make([]RootSummary, len(sums))
	copy(sorted, sums)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Key == sorted[i-1].Key {
			return nil, fmt.Errorf("tree: duplicate subtree root key %#x", sorted[i].Key)
		}
	}
	return buildTop(sorted, t, logB, RootKey, 0, localRoots, codec, acc)
}

func buildTop[D any](sums []RootSummary, t Type, logB uint, key uint64, level int, localRoots map[uint64]*Node[D], codec DataCodec[D], acc Accumulator[D]) (*Node[D], error) {
	if len(sums) == 0 {
		n := NewNode[D](key, level, KindEmptyLeaf, 0)
		n.Box = vec.EmptyBox()
		n.Data = acc.Empty()
		return n, nil
	}
	if len(sums) == 1 && sums[0].Key == key {
		s := sums[0]
		if local, ok := localRoots[key]; ok {
			return local, nil
		}
		if s.Tree != nil {
			// Deep share: splice the shipped top of the subtree, with
			// placeholders below the cut, exactly like a cache fill.
			n, err := DeserializeSubtree(s.Tree, t.LogB(), codec, localRoots)
			if err != nil {
				return nil, fmt.Errorf("tree: summary tree for %#x: %w", key, err)
			}
			return n, nil
		}
		var n *Node[D]
		if s.IsLeaf {
			n = NewNode[D](key, level, KindRemoteLeaf, 0)
		} else {
			n = NewNode[D](key, level, KindCachedRemote, t.BranchFactor())
			for i := 0; i < t.BranchFactor(); i++ {
				ph := NewNode[D](ChildKey(key, i, logB), level+1, KindRemote, 0)
				ph.Owner = s.Owner
				n.SetChild(i, ph)
			}
		}
		n.Owner = s.Owner
		n.Box = s.Box
		n.NParticles = s.NParticles
		d, used := codec.DecodeData(s.Data)
		if used != len(s.Data) {
			return nil, fmt.Errorf("tree: summary data for %#x decoded %d of %d bytes", key, used, len(s.Data))
		}
		n.Data = d
		return n, nil
	}
	// Multiple summaries below this key: internal top node.
	for _, s := range sums {
		if s.Key == key {
			return nil, fmt.Errorf("tree: summary %#x is an ancestor of other summaries", s.Key)
		}
		if !IsAncestorKey(key, s.Key, logB) {
			return nil, fmt.Errorf("tree: summary %#x is not under node %#x", s.Key, key)
		}
	}
	branch := t.BranchFactor()
	n := NewNode[D](key, level, KindInternal, branch)
	n.Owner = -1
	n.Box = vec.EmptyBox()
	n.Data = acc.Empty()
	covered := 0
	for i := 0; i < branch; i++ {
		ck := ChildKey(key, i, logB)
		var childSums []RootSummary
		for _, s := range sums {
			if IsAncestorKey(ck, s.Key, logB) {
				childSums = append(childSums, s)
			}
		}
		covered += len(childSums)
		c, err := buildTop(childSums, t, logB, ck, level+1, localRoots, codec, acc)
		if err != nil {
			return nil, err
		}
		// Splice local subtree roots without reparenting: several top-tree
		// views (one per worker under the per-thread cache policy) may share
		// one local subtree, so its Parent stays nil and traversals keep
		// explicit ancestor stacks instead.
		_, spliced := localRoots[ck]
		if !spliced {
			c.Parent = n
		}
		n.children[i].Store(c)
		n.Box = n.Box.Union(c.Box)
		n.NParticles += c.NParticles
		n.Data = acc.Add(n.Data, c.Data)
	}
	if covered != len(sums) {
		return nil, fmt.Errorf("tree: %d summaries under %#x not covered by its children", len(sums)-covered, key)
	}
	return n, nil
}
