package cache

import (
	"slices"
	"sync"

	"paratreet/internal/tree"
)

// RefreshStats reports what a RefreshViews call did with the previous
// view's fetched remote subtrees, summed over all views.
type RefreshStats struct {
	// Kept counts fetched subtrees re-adopted into the fresh view because
	// their home subtree's version was unchanged.
	Kept int
	// Dropped counts fetched subtrees discarded because their home subtree
	// was patched since they were shipped.
	Dropped int
}

// RefreshViews is the one view constructor (the top-share step): it
// replaces the process-level hash table of local subtree roots with local
// (this process's subtrees of the new cover), builds the top-tree view(s)
// from the broadcast summaries — under PerThread each worker gets an
// independent view with its own placeholders — and then walks each fresh
// view and the one it replaces in lockstep, re-adopting fetched remote
// subtrees whose home subtree's version is unchanged: those bytes are
// bit-identical to what a re-fetch would ship, so keeping them saves the
// round trip. Subtrees whose version advanced, or whose key is new to the
// cover, are dropped; their placeholders fault in fresh data on first
// touch. versions maps every subtree key of the new cover to its version;
// the cache keeps the map. A cold cache (new, or Reset) has no previous
// view and readopts nothing.
//
// Must run during the build phase, after traversal quiescence: every
// in-flight fill has landed, the pending maps are empty, and no retry
// timer is armed, so the previous view is frozen and safe to cannibalize.
func (c *Cache[D]) RefreshViews(sums []tree.RootSummary, local []*tree.Node[D], acc tree.Accumulator[D], versions map[uint64]uint64) (RefreshStats, error) {
	c.rootsMu.Lock()
	defer c.rootsMu.Unlock()
	c.localRoots = make(map[uint64]*tree.Node[D], len(local))
	c.sortedKeys = c.sortedKeys[:0]
	for _, n := range local {
		c.localRoots[n.Key] = n
		c.sortedKeys = append(c.sortedKeys, n.Key)
	}
	slices.Sort(c.sortedKeys)

	keep := make(map[uint64]bool, len(versions))
	for k, ver := range versions {
		last, ok := c.lastVersions[k]
		keep[k] = ok && last == ver
	}
	var st RefreshStats
	for _, v := range c.views {
		old := v.root
		root, err := tree.BuildTop(sums, c.treeType, c.localRoots, c.codec, acc)
		if err != nil {
			return st, err
		}
		v.pending = sync.Map{}
		if old != nil {
			readopt(root, old, keep, false, &st)
		}
		v.root = root
	}
	c.lastVersions = versions
	return st, nil
}

// readopt descends matching internal structure of the fresh and previous
// top trees. Wherever the fresh tree holds a never-fetched placeholder
// and the previous tree holds a fetched subtree at the same key, the old
// subtree is spliced into the fresh tree — but only when the subtree
// version at that key (or the nearest enclosing subtree root) is
// unchanged. Local splices are shared node objects (nc == oc) and are
// skipped untouched.
func readopt[D any](nw, old *tree.Node[D], keep map[uint64]bool, keepRegion bool, st *RefreshStats) {
	n := nw.NumChildren()
	if n != old.NumChildren() {
		return
	}
	for i := 0; i < n; i++ {
		nc, oc := nw.Child(i), old.Child(i)
		if nc == nil || oc == nil || nc == oc || nc.Key != oc.Key {
			continue
		}
		kr := keepRegion
		if v, ok := keep[nc.Key]; ok {
			kr = v
		}
		nk, ok := nc.Kind(), oc.Kind()
		if (nk == tree.KindRemote || nk == tree.KindRemoteLeaf) &&
			(ok == tree.KindCachedRemote || ok == tree.KindCachedRemoteLeaf) {
			if kr {
				if nw.SwapChild(i, nc, oc) {
					oc.Parent = nw
					st.Kept++
				}
			} else {
				st.Dropped++
			}
			continue
		}
		if !nk.IsLeaf() && !ok.IsLeaf() {
			readopt(nc, oc, keep, kr, st)
		}
	}
}
