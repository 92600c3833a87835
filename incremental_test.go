package paratreet_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/tree"
)

// Incremental-build differential tests: an Incremental simulation and a
// from-scratch simulation are driven through the same multi-step workload
// and must stay BIT-IDENTICAL at every step — every subtree tree node
// (keys, kinds, boxes, counts, bucketed particles, and accumulated Data,
// floats included), the gathered particle state, and the traversal
// answers. The incremental path earns its speedup purely by skipping
// work whose result is already known, never by approximating it.

// incParticles builds a clustered workload of n particles whose last 8
// are anchors pinned to the universe corners, so interior motion cannot
// change the global bounding box (a box change forces a scratch rebuild
// by design — see TestIncrementalFallbacks).
func incParticles(n int, seed int64) []particle.Particle {
	box := paratreet.Box{Max: paratreet.V(1, 1, 1)}
	ps := particle.NewClustered(n-8, seed, box, 6)
	// Clamp the clusters' Gaussian tails into the interior so the corner
	// anchors always define the bounding box, before and after drift.
	for i := range ps {
		ps[i].Pos = paratreet.V(clamp01(ps[i].Pos.X), clamp01(ps[i].Pos.Y), clamp01(ps[i].Pos.Z))
	}
	id := int64(len(ps))
	for cx := 0; cx <= 1; cx++ {
		for cy := 0; cy <= 1; cy++ {
			for cz := 0; cz <= 1; cz++ {
				ps = append(ps, particle.Particle{
					ID:   id,
					Pos:  paratreet.V(float64(cx), float64(cy), float64(cz)),
					Mass: 1e-12,
				})
				id++
			}
		}
	}
	return ps
}

func clamp01(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 0.99 {
		return 0.99
	}
	return x
}

// drift mutates roughly `movers` interior particles (positions nudged,
// velocities rewritten), chosen and displaced deterministically by
// particle ID, so the identical mutation can be applied to two
// simulations whose particle array orders have diverged.
func drift(ps []particle.Particle, step, movers int) {
	idx := make(map[int64]int, len(ps))
	for i := range ps {
		idx[ps[i].ID] = i
	}
	interior := len(ps) - 8
	rng := rand.New(rand.NewSource(int64(7777 + step)))
	for m := 0; m < movers; m++ {
		i := idx[int64(rng.Intn(interior))]
		ps[i].Pos = paratreet.V(
			clamp01(ps[i].Pos.X+(rng.Float64()-0.5)*0.05),
			clamp01(ps[i].Pos.Y+(rng.Float64()-0.5)*0.05),
			clamp01(ps[i].Pos.Z+(rng.Float64()-0.5)*0.05),
		)
		ps[i].Vel = paratreet.V(rng.Float64(), rng.Float64(), rng.Float64())
	}
}

// requireSameNodes is the bit-identity oracle: every field of every node
// must agree, including float Data (compared exactly, not to tolerance).
func requireSameNodes[D any](t *testing.T, a, b *tree.Node[D], path string) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", path)
	}
	if a == nil {
		return
	}
	if a.Key != b.Key || a.Level != b.Level || a.Kind() != b.Kind() {
		t.Fatalf("%s: identity mismatch: (%#x L%d %v) vs (%#x L%d %v)",
			path, a.Key, a.Level, a.Kind(), b.Key, b.Level, b.Kind())
	}
	if a.Box != b.Box || a.NParticles != b.NParticles {
		t.Fatalf("%s: box/count mismatch", path)
	}
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatalf("%s: Data mismatch: %+v vs %+v", path, a.Data, b.Data)
	}
	if len(a.Particles) != len(b.Particles) {
		t.Fatalf("%s: bucket sizes %d vs %d", path, len(a.Particles), len(b.Particles))
	}
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			t.Fatalf("%s: bucket particle %d differs: %+v vs %+v", path, i, a.Particles[i], b.Particles[i])
		}
	}
	if a.NumChildren() != b.NumChildren() {
		t.Fatalf("%s: child counts %d vs %d", path, a.NumChildren(), b.NumChildren())
	}
	for i := 0; i < a.NumChildren(); i++ {
		requireSameNodes(t, a.Child(i), b.Child(i), fmt.Sprintf("%s/%d", path, i))
	}
}

func sortedByID(ps []particle.Particle) []particle.Particle {
	out := particle.Clone(ps)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// requireSameWorlds compares two simulations' full resident state: every
// subtree's tree node-by-node, the canonical particle arrays (by ID), and
// the partitions' bucket contents (via Gather, also by ID).
func requireSameWorlds[D any](t *testing.T, inc, scr *paratreet.Simulation[D], label string) {
	t.Helper()
	wi, ws := inc.World(), scr.World()
	if len(wi.Subtrees) != len(ws.Subtrees) {
		t.Fatalf("%s: %d subtrees vs %d", label, len(wi.Subtrees), len(ws.Subtrees))
	}
	for i := range wi.Subtrees {
		si, ss := wi.Subtrees[i], ws.Subtrees[i]
		if si.Key != ss.Key || si.Level != ss.Level || si.Owner != ss.Owner {
			t.Fatalf("%s: subtree %d identity mismatch", label, i)
		}
		requireSameNodes(t, si.Root, ss.Root, fmt.Sprintf("%s/subtree%#x", label, si.Key))
	}
	a, b := sortedByID(inc.Particles()), sortedByID(scr.Particles())
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: canonical particle %d differs: %+v vs %+v", label, i, a[i], b[i])
			}
		}
		t.Fatalf("%s: canonical particle state differs", label)
	}
	ga, gb := sortedByID(wi.Gather(nil)), sortedByID(ws.Gather(nil))
	if !reflect.DeepEqual(ga, gb) {
		t.Fatalf("%s: partition bucket contents differ", label)
	}
}

func newKNNSim(t *testing.T, cfg paratreet.Config, ps []particle.Particle) *paratreet.Simulation[knn.Data] {
	t.Helper()
	sim, err := paratreet.NewSimulation[knn.Data](cfg, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// runKNNStep runs one iteration of k-nearest-neighbor search and returns
// the found radius per particle ID.
func runKNNStep(t *testing.T, sim *paratreet.Simulation[knn.Data], n, k int) []float64 {
	t.Helper()
	got := make([]float64, n)
	driver := paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), k)
			}
			paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: k, ExcludeSelf: true}
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					got[b.Particles[i].ID] = st.Radius(i)
				}
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		t.Fatal(err)
	}
	return got
}

// requireTargetState checks, after a kNN step, the per-partition target
// storage the build numbers and knn.Attach carves: within each partition
// every bucket points at the one Targets and the offsets tile [0,
// Targets.N); and every heap — kept buckets' included, whose storage an
// earlier step's Attach carved — holds exactly this step's neighbours:
// k entries, each at the neighbour's current position and distance. It
// returns the step's buckets and how many of them the build kept from
// prev, the buckets of the step before.
func requireTargetState(t *testing.T, sim *paratreet.Simulation[knn.Data], k int, prev map[*paratreet.Bucket]bool, label string) (map[*paratreet.Bucket]bool, int) {
	t.Helper()
	current := map[int64]paratreet.Vec3{}
	sim.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
		for i := range b.Particles {
			current[b.Particles[i].ID] = b.Particles[i].Pos
		}
	})
	buckets := map[*paratreet.Bucket]bool{}
	kept := 0
	for _, p := range sim.Partitions() {
		bs := p.Buckets()
		if len(bs) == 0 {
			continue
		}
		targets := bs[0].Targets
		covered := make([]bool, targets.N)
		for _, b := range bs {
			if b.Targets != targets {
				t.Fatalf("%s: partition %d: buckets point at different Targets", label, p.ID)
			}
			for i := range b.Particles {
				at := b.Offset + i
				if at >= targets.N || covered[at] {
					t.Fatalf("%s: partition %d: bucket %#x offset %d+%d outside [0,%d) or taken twice", label, p.ID, b.Key, b.Offset, i, targets.N)
				}
				covered[at] = true
			}
			buckets[b] = true
			if prev[b] {
				kept++
			}
			st := b.State.(*knn.State)
			for i := range b.Particles {
				p := &b.Particles[i]
				nbrs := st.Neighbors(i)
				if len(nbrs) != k {
					t.Fatalf("%s: particle %d holds %d neighbours, want %d", label, p.ID, len(nbrs), k)
				}
				for _, nb := range nbrs {
					if pos, ok := current[nb.ID]; !ok || pos != nb.Pos || pos.DistSq(p.Pos) != nb.DistSq {
						t.Fatalf("%s: particle %d holds neighbour %d at %v (d²=%v), not this step's", label, p.ID, nb.ID, nb.Pos, nb.DistSq)
					}
				}
			}
		}
		if slices.Contains(covered, false) {
			t.Fatalf("%s: partition %d: offsets leave a gap in [0,%d)", label, p.ID, targets.N)
		}
	}
	return buckets, kept
}

// incCombos enumerates the supported decomp x policy x machine matrix; in
// -short mode, the two independent sweeps instead of the crossproduct.
type incCombo struct {
	name                  string
	decomp                paratreet.DecompType
	policy                paratreet.CachePolicy
	procs, workers, build int
}

func incCombos(short bool) []incCombo {
	decomps := []struct {
		name string
		d    paratreet.DecompType
	}{{"sfc-morton", paratreet.DecompSFC}, {"oct", paratreet.DecompOct}}
	machines := []struct {
		name                  string
		procs, workers, build int
	}{{"p1w1", 1, 1, 1}, {"p2w2", 2, 2, 2}}
	var combos []incCombo
	add := func(di, pi, mi int) {
		combos = append(combos, incCombo{
			name:   fmt.Sprintf("%s/%s/%s", decomps[di].name, diffPolicies[pi].name, machines[mi].name),
			decomp: decomps[di].d, policy: diffPolicies[pi].p,
			procs: machines[mi].procs, workers: machines[mi].workers, build: machines[mi].build,
		})
	}
	if short {
		for di := range decomps {
			add(di, 0, 1)
		}
		for pi := 1; pi < len(diffPolicies); pi++ {
			add(0, pi, 1)
		}
		add(0, 0, 0)
		return combos
	}
	for di := range decomps {
		for pi := range diffPolicies {
			for mi := range machines {
				add(di, pi, mi)
			}
		}
	}
	return combos
}

func incConfig(c incCombo, incremental bool) paratreet.Config {
	return paratreet.Config{
		Procs: c.procs, WorkersPerProc: c.workers, BuildWorkers: c.build,
		Tree: paratreet.TreeOct, Decomp: c.decomp, BucketSize: 16,
		CachePolicy: c.policy, FetchDepth: 2,
		Incremental: incremental,
	}
}

// TestIncrementalMatchesScratch is the tentpole differential: across the
// decomp x policy x machine matrix, an incremental simulation must stay
// bit-identical to a from-scratch one through a multi-step ~1%-movers
// workload — same trees, same buckets, same kNN answers — while actually
// taking the incremental path from the second step on. After every build
// both sides' target storage is numbered afresh and every heap, a kept
// bucket's too, holds only that step's neighbours.
func TestIncrementalMatchesScratch(t *testing.T) {
	const n = 2000
	const k = 8
	const steps = 4
	ps0 := incParticles(n, 99)

	for _, c := range incCombos(testing.Short()) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inc := newKNNSim(t, incConfig(c, true), particle.Clone(ps0))
			defer inc.Close()
			scr := newKNNSim(t, incConfig(c, false), particle.Clone(ps0))
			defer scr.Close()
			var incBuckets map[*paratreet.Bucket]bool
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("step%d", step)
				ri := runKNNStep(t, inc, n, k)
				rs := runKNNStep(t, scr, n, k)
				var kept int
				incBuckets, kept = requireTargetState(t, inc, k, incBuckets, label+"/incremental")
				requireTargetState(t, scr, k, nil, label+"/scratch")
				if step > 0 && kept == 0 {
					t.Errorf("%s: the incremental build kept no bucket", label)
				}
				for id := range ri {
					if ri[id] != rs[id] {
						t.Fatalf("%s: particle %d kNN radius %.17g (incremental) vs %.17g (scratch)",
							label, id, ri[id], rs[id])
					}
				}
				requireSameWorlds(t, inc, scr, label)
				ist, sst := inc.BuildStats(), scr.BuildStats()
				if sst.Mode != "scratch" {
					t.Fatalf("%s: scratch sim took mode %q", label, sst.Mode)
				}
				wantMode := "incremental"
				if step == 0 {
					wantMode = "scratch"
				}
				if ist.Mode != wantMode {
					t.Fatalf("%s: incremental sim took mode %q (fallback %q), want %q",
						label, ist.Mode, ist.FallbackReason, wantMode)
				}
				if step > 0 && ist.ReusedLeaves == 0 {
					t.Errorf("%s: incremental build reused no leaves", label)
				}
				drift(inc.Particles(), step, n/100)
				drift(scr.Particles(), step, n/100)
			}
		})
	}
}

// TestIncrementalGravityDataBitIdentical drives build-only steps with the
// gravity accumulator, whose Data is floating-point moments: the patched
// in-order re-fold must reproduce the scratch build's sums bit for bit,
// not merely to tolerance.
func TestIncrementalGravityDataBitIdentical(t *testing.T) {
	const n = 3000
	const steps = 5
	ps0 := incParticles(n, 41)
	mk := func(incremental bool) *paratreet.Simulation[gravity.CentroidData] {
		sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
			Procs: 2, WorkersPerProc: 2, BuildWorkers: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
			FetchDepth: 2, Incremental: incremental,
		}, gravity.Accumulator{}, gravity.Codec{}, particle.Clone(ps0))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	inc, scr := mk(true), mk(false)
	defer inc.Close()
	defer scr.Close()
	for step := 0; step < steps; step++ {
		if err := inc.BuildOnly(); err != nil {
			t.Fatal(err)
		}
		if err := scr.BuildOnly(); err != nil {
			t.Fatal(err)
		}
		requireSameWorlds(t, inc, scr, fmt.Sprintf("step%d", step))
		if step > 0 && inc.BuildStats().Mode != "incremental" {
			t.Fatalf("step%d: mode %q (fallback %q)", step, inc.BuildStats().Mode, inc.BuildStats().FallbackReason)
		}
		drift(inc.Particles(), step, n/100)
		drift(scr.Particles(), step, n/100)
	}
}

// TestIncrementalFaultedMatchesScratch reruns the differential under the
// chaos fault cocktail (drops, duplicates, jitter, pauses on the cache
// wire): retries and idempotent fills must keep the incremental path
// bit-identical even when every fetch is unreliable.
func TestIncrementalFaultedMatchesScratch(t *testing.T) {
	const n = 2000
	const k = 8
	const steps = 3
	ps0 := incParticles(n, 17)
	mk := func(incremental bool) *paratreet.Simulation[knn.Data] {
		cfg := paratreet.Config{
			Procs: 2, WorkersPerProc: 2, BuildWorkers: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
			CachePolicy: paratreet.CacheWaitFree, FetchDepth: 2,
			Incremental: incremental,
			Faults:      chaosFaults(),
		}
		return newKNNSim(t, cfg, particle.Clone(ps0))
	}
	inc, scr := mk(true), mk(false)
	defer inc.Close()
	defer scr.Close()
	for step := 0; step < steps; step++ {
		ri := runKNNStep(t, inc, n, k)
		rs := runKNNStep(t, scr, n, k)
		for id := range ri {
			if ri[id] != rs[id] {
				t.Fatalf("step%d: particle %d kNN radius %.17g (incremental) vs %.17g (scratch)",
					step, id, ri[id], rs[id])
			}
		}
		requireSameWorlds(t, inc, scr, fmt.Sprintf("step%d", step))
		if step > 0 && inc.BuildStats().Mode != "incremental" {
			t.Fatalf("step%d: mode %q (fallback %q)", step, inc.BuildStats().Mode, inc.BuildStats().FallbackReason)
		}
		drift(inc.Particles(), step, n/100)
		drift(scr.Particles(), step, n/100)
	}
	if inc.Stats().Drops == 0 || scr.Stats().Drops == 0 {
		t.Error("fault injection did not drop any messages — test not exercising faults")
	}
}

// coverChangeDifferential drives an incremental and a from-scratch kNN
// simulation in lockstep, a traversal between every two builds, until the
// drift makes the splitter refinement walk a different cover — a subtree
// key that was not there the step before. On that step the incremental
// build must patch the subtrees that survived and build only the rest,
// keep the remote fills it had fetched from unchanged subtrees, and still
// equal the scratch twin bit for bit, answers included; one more step
// shows the state it left is a sound base to patch from.
func coverChangeDifferential(t *testing.T, cfg paratreet.Config) {
	t.Helper()
	const n = 2000
	const k = 8
	const maxSteps = 60
	ps0 := incParticles(n, 99)
	cfg.Incremental = true
	inc := newKNNSim(t, cfg, particle.Clone(ps0))
	defer inc.Close()
	cfg.Incremental = false
	scr := newKNNSim(t, cfg, particle.Clone(ps0))
	defer scr.Close()

	var prev map[uint64]bool
	changedAt := -1
	for step := 0; step < maxSteps && (changedAt < 0 || step <= changedAt+1); step++ {
		label := fmt.Sprintf("step%d", step)
		ri := runKNNStep(t, inc, n, k)
		rs := runKNNStep(t, scr, n, k)
		for id := range ri {
			if ri[id] != rs[id] {
				t.Fatalf("%s: particle %d kNN radius %.17g (incremental) vs %.17g (scratch)", label, id, ri[id], rs[id])
			}
		}
		requireSameWorlds(t, inc, scr, label)

		keys := make(map[uint64]bool)
		fresh := false
		for _, st := range inc.World().Subtrees {
			keys[st.Key] = true
			fresh = fresh || (prev != nil && !prev[st.Key])
		}
		prev = keys
		if fresh && changedAt < 0 {
			changedAt = step
			st := inc.BuildStats()
			if st.Mode != "incremental" || st.ReusedLeaves == 0 || st.BuiltSubtrees == 0 {
				t.Fatalf("%s: cover changed: mode %q (fallback %q), %d leaves reused, %d subtrees built fresh; want a patch that builds only the new subtrees",
					label, st.Mode, st.FallbackReason, st.ReusedLeaves, st.BuiltSubtrees)
			}
			if cfg.Procs > 1 && st.CacheKept == 0 {
				t.Errorf("%s: cover changed: no fetched subtree kept (%d dropped)", label, st.CacheDropped)
			}
		}
		drift(inc.Particles(), step, n/100)
		drift(scr.Particles(), step, n/100)
	}
	if changedAt < 0 {
		t.Fatalf("the cover did not change in %d steps", maxSteps)
	}
}

// TestIncrementalCoverChange: with many subtrees a 1%-mover step now and
// then refines a different one. That used to be the "splitters-changed"
// cliff — one subtree of hundreds changed and every one was rebuilt; it is
// a patch like any other step.
func TestIncrementalCoverChange(t *testing.T) {
	for _, subtrees := range []int{64, 256} {
		for _, procs := range []int{1, 2, 4} {
			if testing.Short() && (subtrees == 64) != (procs == 2) {
				continue // short: 64 subtrees on 2 procs, 256 on 1 and 4
			}
			t.Run(fmt.Sprintf("subtrees=%d/p%d", subtrees, procs), func(t *testing.T) {
				coverChangeDifferential(t, paratreet.Config{
					Procs: procs, WorkersPerProc: 2, BuildWorkers: 2, Subtrees: subtrees,
					Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
					CachePolicy: paratreet.CacheWaitFree, FetchDepth: 2,
				})
			})
		}
	}
}

// TestIncrementalCoverChangeFaulted reruns the cover change under the
// chaos fault cocktail, beside TestIncrementalFaultedMatchesScratch.
func TestIncrementalCoverChangeFaulted(t *testing.T) {
	coverChangeDifferential(t, paratreet.Config{
		Procs: 2, WorkersPerProc: 2, BuildWorkers: 2, Subtrees: 64,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		CachePolicy: paratreet.CacheWaitFree, FetchDepth: 2,
		Faults: chaosFaults(),
	})
}

// TestIncrementalFallbacks pins the fallback ladder: unsupported
// configurations and structural steps must take the scratch path with the
// documented reason — and still produce correct state.
func TestIncrementalFallbacks(t *testing.T) {
	const n = 1000
	const k = 8

	t.Run("decomp-type", func(t *testing.T) {
		cfg := paratreet.Config{
			Procs: 1, WorkersPerProc: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFCHilbert, BucketSize: 16,
			Incremental: true,
		}
		sim := newKNNSim(t, cfg, incParticles(n, 3))
		defer sim.Close()
		for step := 0; step < 2; step++ {
			runKNNStep(t, sim, n, k)
			st := sim.BuildStats()
			if st.Mode != "scratch" || st.FallbackReason != "decomp-type" {
				t.Fatalf("step%d: mode %q reason %q, want scratch/decomp-type", step, st.Mode, st.FallbackReason)
			}
			drift(sim.Particles(), step, n/100)
		}
	})

	t.Run("universe-changed", func(t *testing.T) {
		cfg := paratreet.Config{
			Procs: 1, WorkersPerProc: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
			Incremental: true,
		}
		ps := incParticles(n, 4)
		sim := newKNNSim(t, cfg, ps)
		defer sim.Close()
		runKNNStep(t, sim, n, k)
		// Push a corner anchor outward: the global bounding box grows, so
		// the previous tree's geometry is invalid and the build must fall
		// back — while still producing a correct tree for the new box.
		cur := sim.Particles()
		for i := range cur {
			if cur[i].ID == int64(n-1) {
				cur[i].Pos = paratreet.V(1.5, 1.5, 1.5)
			}
		}
		scr := newKNNSim(t, paratreet.Config{
			Procs: 1, WorkersPerProc: 2,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		}, particle.Clone(cur))
		defer scr.Close()
		ri := runKNNStep(t, sim, n, k)
		rs := runKNNStep(t, scr, n, k)
		st := sim.BuildStats()
		if st.Mode != "scratch" || st.FallbackReason != "universe-changed" {
			t.Fatalf("mode %q reason %q, want scratch/universe-changed", st.Mode, st.FallbackReason)
		}
		for id := range ri {
			if ri[id] != rs[id] {
				t.Fatalf("post-fallback answers differ at particle %d", id)
			}
		}
		requireSameWorlds(t, sim, scr, "post-fallback")
	})
}

// requireIncrementalTwin builds a from-scratch twin over a copy of the
// simulation's current particles and requires the incremental simulation
// to have patched its way to the same state, bit for bit.
func requireIncrementalTwin(t *testing.T, inc *paratreet.Simulation[gravity.CentroidData], cfg paratreet.Config, label string) {
	t.Helper()
	if st := inc.BuildStats(); st.Mode != "incremental" {
		t.Fatalf("%s: mode %q (fallback %q), want incremental", label, st.Mode, st.FallbackReason)
	}
	cfg.Incremental = false
	twin, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, particle.Clone(inc.Particles()))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if err := twin.BuildOnly(); err != nil {
		t.Fatal(err)
	}
	requireSameWorlds(t, inc, twin, label)
}

// TestIncrementalInputOrder: an incremental step does not need its array
// in the previous build's order. A permuted copy handed to SetParticles,
// and the partition/bucket order Gather leaves after a Run-driven step,
// both stay on the incremental path and bit-identical to a scratch twin;
// the sort reports how many particles it had to move, and an array that
// arrives in order moves none.
func TestIncrementalInputOrder(t *testing.T) {
	const n = 3000
	for _, build := range []int{1, 2} {
		t.Run(fmt.Sprintf("build=%d", build), func(t *testing.T) {
			cfg := paratreet.Config{
				Procs: 2, WorkersPerProc: 2, BuildWorkers: build,
				Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
				FetchDepth: 2, Incremental: true,
			}
			inc, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, incParticles(n, 23))
			if err != nil {
				t.Fatal(err)
			}
			defer inc.Close()
			if err := inc.BuildOnly(); err != nil {
				t.Fatal(err)
			}
			if st := inc.BuildStats(); st.Mode != "scratch" || st.SortMoved == 0 {
				t.Fatalf("first build: mode %q, sort moved %d of a generator-ordered array", st.Mode, st.SortMoved)
			}

			// The array as the build left it: in order, nothing to move.
			if err := inc.BuildOnly(); err != nil {
				t.Fatal(err)
			}
			if st := inc.BuildStats(); st.SortMoved != 0 || st.Movers != 0 {
				t.Fatalf("unchanged array: sort moved %d, %d keys changed, want 0 and 0", st.SortMoved, st.Movers)
			}
			requireIncrementalTwin(t, inc, cfg, "unchanged")

			// A drifted, fully permuted copy through SetParticles.
			shuffled := particle.Clone(inc.Particles())
			drift(shuffled, 0, n/100)
			rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if err := inc.SetParticles(shuffled); err != nil {
				t.Fatal(err)
			}
			if err := inc.BuildOnly(); err != nil {
				t.Fatal(err)
			}
			if st := inc.BuildStats(); st.SortMoved < n/2 || st.Movers == 0 || st.Movers > n/100 {
				t.Fatalf("permuted array: sort moved %d, %d keys changed", st.SortMoved, st.Movers)
			}
			requireIncrementalTwin(t, inc, cfg, "permuted")

			// Run-driven steps: Gather hands the next build the particles in
			// partition/bucket order, which is not key order.
			par := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-3}
			for step := 1; step <= 2; step++ {
				if err := inc.Run(1, gravityDriver(par)); err != nil {
					t.Fatal(err)
				}
				drift(inc.Particles(), step, n/100)
				if err := inc.BuildOnly(); err != nil {
					t.Fatal(err)
				}
				requireIncrementalTwin(t, inc, cfg, fmt.Sprintf("gathered%d", step))
			}
		})
	}
}

// TestBuildRejectsNonFinitePosition: a NaN or infinite coordinate has no
// key. Both builders refuse it with an error naming the particle, from
// BuildOnly and from Run, before anything resident is touched: the
// incremental simulation still holds its previous trees afterwards and
// patches on once the position is repaired.
func TestBuildRejectsNonFinitePosition(t *testing.T) {
	const n = 5000 // past the cutoff where BuildWorkers > 1 keys in parallel
	const victim = 4321
	cfg := paratreet.Config{
		Procs: 2, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16, FetchDepth: 2,
	}
	wantErr := func(t *testing.T, err error, id int64) {
		t.Helper()
		if want := fmt.Sprintf("particle %d", id); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want an error naming %q", err, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, build := range []int{1, 4} {
			cfg.BuildWorkers = build
			t.Run(fmt.Sprintf("scratch/%v/build=%d", bad, build), func(t *testing.T) {
				ps := incParticles(n, 31)
				ps[victim].Pos.X = bad
				sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				wantErr(t, sim.BuildOnly(), ps[victim].ID)
				wantErr(t, sim.Run(1, gravityDriver(gravity.DefaultParams())), ps[victim].ID)
			})
			t.Run(fmt.Sprintf("incremental/%v/build=%d", bad, build), func(t *testing.T) {
				icfg := cfg
				icfg.Incremental = true
				sim, err := paratreet.NewSimulation[gravity.CentroidData](icfg, gravity.Accumulator{}, gravity.Codec{}, incParticles(n, 31))
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				if err := sim.BuildOnly(); err != nil {
					t.Fatal(err)
				}
				before := particle.Clone(sim.World().Gather(nil))
				universe := sim.Universe()
				ps := sim.Particles()
				drift(ps, 0, n/100)
				good := ps[victim].Pos
				ps[victim].Pos.Z = bad
				wantErr(t, sim.BuildOnly(), ps[victim].ID)
				wantErr(t, sim.Run(1, gravityDriver(gravity.DefaultParams())), ps[victim].ID)
				if sim.Universe() != universe || !reflect.DeepEqual(sim.World().Gather(nil), before) {
					t.Fatal("a refused build changed the resident state")
				}
				ps[victim].Pos = good
				if err := sim.BuildOnly(); err != nil {
					t.Fatal(err)
				}
				requireIncrementalTwin(t, sim, icfg, "repaired")
			})
		}
	}
}
