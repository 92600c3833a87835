package core

import (
	"sync"
	"time"

	"paratreet/internal/decomp"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/sfc"
	"paratreet/internal/tree"
)

// buildIncremental patches the previous iteration's state in place of the
// scratch pipeline. It replays every decision the scratch build makes —
// universe reduction, Morton keying and sort, partition marking, subtree
// splitters — and then, instead of rebuilding, patches each subtree's
// tree along dirty paths, re-broadcasts only changed root summaries,
// refreshes cache views keeping still-valid fetched subtrees, and
// re-shares only the buckets of dirty leaves. The result is bit-identical
// to what buildScratch would produce from the same particles.
//
// It returns a non-empty fallback reason when the step cannot be patched
// (the caller then runs buildScratch); a non-nil error aborts the
// iteration.
func (w *World[D]) buildIncremental(ps []particle.Particle) (string, error) {
	buildStart := time.Now()
	m := w.Machine
	nprocs := m.NumProcs()

	// One pass over the array does everything that has to look at every
	// particle before the patch: it rejects non-finite positions, reduces
	// the universe, re-keys against the resident universe (counting the
	// keys that changed), and scans for particles out of order. Keying
	// before the reduction is known is safe because any change to the
	// global bounding box rescales every Morton cell and makes the previous
	// tree unpatchable — then the keys are discarded with it, and the
	// scratch build assigns its own.
	universe := w.inc.universe
	box, movers, bad := tree.KeyScan(ps, universe, sfc.MortonKey, w.cfg.BuildWorkers, &w.sorter)
	if bad >= 0 {
		return "", nonFiniteError(&ps[bad])
	}
	if box.Pad(1e-9).Cubed() != universe {
		return "universe-changed", nil
	}

	// Sort into the spare buffer: the live trees alias the current buffer
	// until every leaf is re-pointed, so the patch must read from a
	// different array than the one being retired.
	next := w.takeBuffer(len(ps))
	sorted, other, moved := w.sortInto(next, ps)

	// Partition decomposition: mark every particle. Marks are compared as
	// part of the particle struct during patching, so a reassigned
	// particle dirties both its old and new leaves.
	if _, err := decomp.Assign(w.cfg.DecompType, sorted, universe, w.cfg.Partitions); err != nil {
		return "", err
	}

	// Subtree decomposition must be recomputed, not reused: the splitter
	// refinement is count-sensitive, and bit-identity with a scratch build
	// requires following the refinement the new counts produce. If that
	// walks a different cover than the live subtrees, the step is
	// structural — fall back.
	splits := decomp.OctSplitters(sorted, universe, w.cfg.Subtrees)
	if !sameCover(splits, w.inc.splits) {
		return "splitters-changed", nil
	}
	if err := splits.Validate(len(ps), w.cfg.TreeType.LogB()); err != nil {
		return "", err
	}
	// The caller's array and the new buffer end identical, sorted and
	// marked, whichever of them the sort left the particles in.
	copy(other, sorted)

	// Apply any re-placement the load balancer decided since the last
	// build (partitions persist across incremental steps, so the homes
	// set by SetHomes must be copied in here).
	for i, p := range w.Partitions {
		p.Home = w.homes[i]
	}

	// Patch every subtree in parallel on its owner. The cover is
	// unchanged, so non-empty splitter ranges correspond 1:1, in order,
	// with the live subtrees.
	type job struct {
		st     *Subtree[D]
		lo, hi int
	}
	jobs := make([]job, 0, len(w.Subtrees))
	live := 0
	for i := 0; i < splits.Len(); i++ {
		lo, hi := splits.Ranges[i][0], splits.Ranges[i][1]
		if hi == lo {
			continue
		}
		jobs = append(jobs, job{st: w.Subtrees[live], lo: lo, hi: hi})
		live++
	}

	results := make([]*tree.PatchResult[D], len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		m.Proc(j.st.Owner).Submit(func() {
			defer wg.Done()
			m.Proc(j.st.Owner).TimePhase(rt.PhaseTreeBuild, func() {
				sub := next[j.lo:j.hi:j.hi]
				j.st.Particles = sub
				results[i] = tree.PatchSubtree(j.st.Root, sub, tree.BuildConfig{
					Type:          w.cfg.TreeType,
					BucketSize:    w.cfg.BucketSize,
					Owner:         int32(j.st.Owner),
					Workers:       w.cfg.BuildWorkers,
					MortonOrdered: true,
				}, w.acc)
			})
		})
	}
	wg.Wait()
	m.WaitQuiescence()

	// Top share, delta edition: changed subtrees bump their version and
	// re-broadcast a fresh summary; unchanged subtrees reuse last step's
	// summary blob (bit-identical by construction) for free.
	st := BuildStats{Mode: "incremental", Movers: movers, SortMoved: moved}
	sums := make([]tree.RootSummary, len(jobs))
	w.BroadcastBytes = 0
	for i, j := range jobs {
		res := results[i]
		st.DirtyLeaves += len(res.DirtyLeaves)
		st.ReusedLeaves += res.ReusedLeaves
		if res.Changed {
			w.inc.versions[j.st.Key]++
			sums[i] = tree.SummarizeDepth(j.st.Root, w.codec, w.cfg.ShareDepth)
			w.BroadcastBytes += (len(sums[i].Data) + len(sums[i].Tree) + 64) * (nprocs - 1)
			st.PatchedSubtrees++
		} else {
			sums[i] = w.inc.sums[i]
			st.ReusedSummaries++
		}
	}

	var topErr error
	var topMu sync.Mutex
	for r := 0; r < nprocs; r++ {
		r := r
		wg.Add(1)
		m.Proc(r).Submit(func() {
			defer wg.Done()
			m.Proc(r).TimePhase(rt.PhaseTopShare, func() {
				rst, err := w.Caches[r].RefreshViews(sums, w.acc, w.inc.versions)
				topMu.Lock()
				if err != nil {
					topErr = err
				}
				st.CacheKept += rst.Kept
				st.CacheDropped += rst.Dropped
				topMu.Unlock()
			})
		})
	}
	wg.Wait()
	m.WaitQuiescence()
	if topErr != nil {
		return "", topErr
	}
	w.BuildTime = time.Since(buildStart)

	// Delta leaf share: drop every bucket derived from a removed or dirty
	// leaf, then re-emit the dirty leaves. Clean leaves' buckets are
	// untouched — their particles compared equal, so the copies the
	// partitions hold are already current.
	shareStart := time.Now()
	stale := make(map[uint64]struct{})
	for _, res := range results {
		for _, k := range res.RemovedLeafKeys {
			stale[k] = struct{}{}
		}
		for _, leaf := range res.DirtyLeaves {
			stale[leaf.Key] = struct{}{}
		}
	}
	for _, p := range w.Partitions {
		st.RemovedBuckets += p.RemoveBucketsByKey(stale)
	}
	var splitCount, refreshed int64
	var countMu sync.Mutex
	for i, j := range jobs {
		res := results[i]
		if len(res.DirtyLeaves) == 0 {
			continue
		}
		j := j
		leaves := res.DirtyLeaves
		wg.Add(1)
		m.Proc(j.st.Owner).Submit(func() {
			defer wg.Done()
			m.Proc(j.st.Owner).TimePhase(rt.PhaseLeafShare, func() {
				var sp, bk int64
				for _, leaf := range leaves {
					s, b := w.shareLeaf(j.st, leaf)
					sp += s
					bk += b
				}
				countMu.Lock()
				splitCount += sp
				refreshed += bk
				countMu.Unlock()
			})
		})
	}
	wg.Wait()
	m.WaitQuiescence()
	w.SplitBuckets = int(splitCount)
	w.LeafShareTime = time.Since(shareStart)
	st.RefreshedBuckets = int(refreshed)

	// Commit: retire the previous buffer, adopt the new one.
	w.inc.spare = w.inc.cur
	w.inc.cur = next
	w.inc.splits = splits
	w.inc.sums = sums
	w.stats = st
	return "", nil
}

// sameCover reports whether two splitter sets describe the same subtree
// cover: identical keys and levels, with the same ranges empty. Range
// boundaries may differ (particles moved between subtrees); only the
// cover's shape must match for the live subtrees to be patchable.
func sameCover(a, b decomp.Splitters) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Keys[i] != b.Keys[i] || a.Levels[i] != b.Levels[i] {
			return false
		}
		if (a.Ranges[i][0] == a.Ranges[i][1]) != (b.Ranges[i][0] == b.Ranges[i][1]) {
			return false
		}
	}
	return true
}
