package main

import (
	"math/rand"
	"runtime"
	"time"

	"paratreet"
	"paratreet/internal/decomp"
	"paratreet/internal/particle"
	"paratreet/internal/rt"
	"paratreet/internal/sfc"
	"paratreet/internal/tree"
)

// Layer probes of the traced run: direct timings of exported functions of
// single layers, on the workload's own final particle set, so a layer's
// cost can be read without the layers around it.

const probeReps = 5

// medianOf runs fn probeReps times and returns its median duration; fn
// gets a fresh copy of ps each time, prepared outside the timer.
func medianOf(ps []particle.Particle, prepare func([]particle.Particle), fn func([]particle.Particle)) time.Duration {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		cp := particle.Clone(ps)
		if prepare != nil {
			prepare(cp)
		}
		start := time.Now()
		fn(cp)
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}

// probeBuildPipeline times the stages of a scratch build in isolation:
// Morton keys, the radix sort, partition assignment, and tree
// construction plus Data accumulation.
func probeBuildPipeline[D any](r *result, ps []particle.Particle, cfg paratreet.Config, acc tree.Accumulator[D]) {
	n := float64(len(ps))
	universe := particle.BoundingBox(ps).Pad(1e-9).Cubed()
	rekey := func(cp []particle.Particle) {
		for i := range cp {
			cp[i].Key = sfc.MortonKey(cp[i].Pos, universe)
		}
	}
	sorted := func(cp []particle.Particle) {
		rekey(cp)
		particle.RadixSortByKey(cp, runtime.GOMAXPROCS(0))
	}
	r.set("sfc.key_ns_per_particle", float64(medianOf(ps, nil, rekey))/n)
	r.set("particle.radix_sort_ns_per_particle", float64(medianOf(ps, rekey, func(cp []particle.Particle) {
		particle.RadixSortByKey(cp, runtime.GOMAXPROCS(0))
	}))/n)
	parts := cfg.Partitions
	if parts <= 0 {
		parts = 8 * cfg.Procs
	}
	r.set("decomp.assign_ms", ms(medianOf(ps, sorted, func(cp []particle.Particle) {
		if _, err := decomp.Assign(cfg.Decomp, cp, universe, parts); err != nil {
			panic(err) // parts is positive and the type is one the workload already built with
		}
	})))
	r.set("tree.build_ns_per_particle", float64(medianOf(ps, sorted, func(cp []particle.Particle) {
		root := tree.Build[D](cp, universe, tree.RootKey, 0, tree.BuildConfig{Type: cfg.Tree, BucketSize: cfg.BucketSize})
		tree.Accumulate(root, acc)
	}))/n)
}

// probeCodec serializes seeded internal nodes of a built subtree at the
// fetch depth and deserializes the blobs again: the codec's throughput as
// a cache fill sees it.
func probeCodec[D any](r *result, root *tree.Node[D], depth int, codec tree.DataCodec[D], seed int64) {
	var internal []*tree.Node[D]
	tree.Walk(root, func(nd *tree.Node[D]) bool {
		if !nd.Kind().IsLeaf() && nd.Kind().IsLocal() {
			internal = append(internal, nd)
		}
		return true
	})
	if len(internal) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	const samples = 512
	blobs := make([][]byte, samples)
	var bytes int
	start := time.Now()
	for i := range blobs {
		blobs[i] = tree.SerializeSubtree(internal[rng.Intn(len(internal))], depth, codec)
		bytes += len(blobs[i])
	}
	r.set("tree.serialize_mb_per_s", float64(bytes)/(1<<20)/time.Since(start).Seconds())
	start = time.Now()
	for _, b := range blobs {
		if _, err := tree.DeserializeSubtree(b, tree.Octree.LogB(), codec, nil); err != nil {
			panic(err) // the blob was produced by SerializeSubtree a moment ago
		}
	}
	r.set("tree.deserialize_mb_per_s", float64(bytes)/(1<<20)/time.Since(start).Seconds())
}

// probeRoundTrip measures one message there and one back between two
// processes of an otherwise idle simulated machine with link simulation
// off: the floor under every cache fetch and every query wave.
func probeRoundTrip(r *result) {
	m := rt.NewMachine(rt.Config{Procs: 2, WorkersPerProc: 1})
	back := make(chan struct{}, 1) // one ping in flight at a time
	m.Proc(1).SetDispatcher(func(int, any) { m.Proc(1).Send(0, nil, 8) })
	m.Proc(0).SetDispatcher(func(int, any) { back <- struct{}{} })
	m.Start()
	const pings = 10000
	rtts := make([]float64, pings)
	for i := range rtts {
		start := time.Now()
		m.Proc(0).Send(1, nil, 8)
		<-back
		rtts[i] = us(time.Since(start))
	}
	m.Stop()
	r.set("rt.roundtrip_us_p50", median(rtts))
}

// treeNodes lists the internal nodes and the non-empty leaves of every
// local subtree, in tree-walk order.
func treeNodes[D any](sim *paratreet.Simulation[D]) (internal, leaves []*tree.Node[D]) {
	for _, st := range sim.World().Subtrees {
		tree.Walk(st.Root, func(nd *tree.Node[D]) bool {
			switch {
			case !nd.Kind().IsLeaf():
				internal = append(internal, nd)
			case len(nd.Particles) > 0:
				leaves = append(leaves, nd)
			}
			return true
		})
	}
	return internal, leaves
}

// pairSample indexes one (internal node, leaf, bucket) combination of a
// kernel probe.
type pairSample struct{ node, leaf, bucket int }

// probePairs is how many combinations a kernel probe times.
const probePairs = 1 << 16

// blockPairs draws combinations in 16x16 blocks: 16 consecutive nodes (in
// tree-walk order) against 16 consecutive buckets (in curve order). The
// transposed traversal applies one node to a run of nearby buckets, so a
// probe over independent random pairs would time cache misses the
// traversal does not have.
func blockPairs(rng *rand.Rand, nodes, leaves, buckets int) []pairSample {
	const side = 16
	out := make([]pairSample, 0, probePairs)
	for len(out) < probePairs {
		n0, l0, b0 := rng.Intn(nodes), rng.Intn(leaves), rng.Intn(buckets)
		for a := 0; a < side; a++ {
			for b := 0; b < side; b++ {
				out = append(out, pairSample{(n0 + a) % nodes, (l0 + a) % leaves, (b0 + b) % buckets})
			}
		}
	}
	return out
}
