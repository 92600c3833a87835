package paratreet_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/tree"
)

// openAll is a visitor that opens every node, making traversal counter
// expectations computable by hand from the tree shape alone.
type openAll struct{}

func (openAll) Open(*tree.Node[gravity.CentroidData], *paratreet.Bucket) bool { return true }
func (openAll) Node(*tree.Node[gravity.CentroidData], *paratreet.Bucket)      {}
func (openAll) Leaf(*tree.Node[gravity.CentroidData], *paratreet.Bucket)      {}

// TestMetricsRegressionTinyRun pins the traversal counters to exact
// hand-computable values: a single-process 64-particle run with an
// always-open per-bucket visitor must report visits = buckets x nodes and
// opens = buckets x (internal + nonempty leaves), with zero prunes and no
// cache traffic of any kind (everything is local).
func TestMetricsRegressionTinyRun(t *testing.T) {
	const n = 64
	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
	ps := particle.NewUniform(n, 7, paratreet.Box{Max: paratreet.V(1, 1, 1)})
	sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
		Procs: 1, WorkersPerProc: 1,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 8,
		Style:   paratreet.StylePerBucket,
		Metrics: reg,
	}, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	var nodes, internal, leaves, buckets int64
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) openAll {
				return openAll{}
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			// Count the view tree the traversal actually walked.
			var walk func(nd *tree.Node[gravity.CentroidData])
			walk = func(nd *tree.Node[gravity.CentroidData]) {
				nodes++
				switch kind := nd.Kind(); {
				case kind == tree.KindEmptyLeaf:
				case kind.IsLeaf():
					leaves++
				default:
					internal++
					for i := 0; i < nd.NumChildren(); i++ {
						if c := nd.Child(i); c != nil {
							walk(c)
						}
					}
				}
			}
			walk(s.World().Caches[0].Root(0))
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], _ *paratreet.Bucket) {
				buckets++
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		t.Fatal(err)
	}
	if nodes == 0 || internal == 0 || leaves == 0 || buckets == 0 {
		t.Fatalf("degenerate tree: nodes=%d internal=%d leaves=%d buckets=%d", nodes, internal, leaves, buckets)
	}

	snap := sim.MetricsSnapshot()
	if snap == nil {
		t.Fatal("MetricsSnapshot() = nil with registry configured")
	}
	expect := map[string]int64{
		"traverse.visits":  buckets * nodes,
		"traverse.opens":   buckets * (internal + leaves),
		"traverse.prunes":  0,
		"traverse.parks":   0,
		"traverse.resumes": 0,
		"cache.hits":       0,
		"cache.misses":     0,
		"cache.fetches":    0,
		"cache.fills":      0,
		"cache.inserts":    0,
		// One build with nothing resident: every subtree built, every leaf dirty.
		"core.builds": 1, "core.subtrees_built": int64(len(sim.World().Subtrees)), "core.subtrees_patched": 0, "core.leaves_dirty": leaves, "core.leaves_reused": 0,
	}
	for name, want := range expect {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d (tree: %d nodes, %d internal, %d leaves, %d buckets)",
				name, got, want, nodes, internal, leaves, buckets)
		}
	}
	if got := snap.Counter("rt.node_requests"); got != 0 {
		t.Errorf("rt.node_requests = %d on a single process", got)
	}
}

// TestMetricsInvariantsDistributed runs gravity on 2 processes with
// metrics attached and checks the cross-layer accounting invariants that
// tie the traversal, cache, and runtime counters together.
func TestMetricsInvariantsDistributed(t *testing.T) {
	const n = 2000
	reg := paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: 4096})
	ps := particle.NewClustered(n, 11, paratreet.Box{Max: paratreet.V(1, 1, 1)}, 6)
	sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
		Procs: 2, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
		FetchDepth: 2,
		Metrics:    reg,
	}, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(gravity.Params{G: 1, Theta: 0.5, Soft: 1e-3})
			})
		},
	}
	if err := sim.Run(2, driver); err != nil {
		t.Fatal(err)
	}
	snap := sim.MetricsSnapshot()
	c := snap.Counter

	for _, name := range []string{"traverse.visits", "traverse.opens", "traverse.prunes", "cache.hits", "cache.misses", "cache.fetches"} {
		if c(name) == 0 {
			t.Errorf("%s = 0, expected nonzero on a 2-process run", name)
		}
	}
	// Every fetch is answered and inserted exactly once.
	if c("cache.fills") != c("cache.fetches") || c("cache.inserts") != c("cache.fills") {
		t.Errorf("fetch/fill/insert mismatch: fetches=%d fills=%d inserts=%d",
			c("cache.fetches"), c("cache.fills"), c("cache.inserts"))
	}
	if c("cache.fetches") != c("rt.node_requests") || c("cache.fills") != c("rt.fills") {
		t.Errorf("cache counters disagree with rt stats: fetches=%d node_requests=%d fills=%d rt.fills=%d",
			c("cache.fetches"), c("rt.node_requests"), c("cache.fills"), c("rt.fills"))
	}
	// Every parked frame is resumed after quiescence; a park is either a
	// unique fetch or a coalesced duplicate.
	if c("traverse.parks") != c("traverse.resumes") {
		t.Errorf("parks=%d != resumes=%d after quiescence", c("traverse.parks"), c("traverse.resumes"))
	}
	if want := c("cache.fetches") + c("rt.duplicate_requests"); c("traverse.parks") != want {
		t.Errorf("parks=%d != fetches+duplicates=%d", c("traverse.parks"), want)
	}
	// Misses exceed parks only by frames that lost the race with a fill.
	if c("cache.misses") < c("traverse.parks") {
		t.Errorf("misses=%d < parks=%d", c("cache.misses"), c("traverse.parks"))
	}
	// Open/prune decisions partition the per-bucket evaluations.
	if c("traverse.opens")+c("traverse.prunes") == 0 {
		t.Error("no open/prune decisions recorded")
	}

	// One sketch sample per event: fetch RTT per fetch, insert time per
	// insert, task time per task run.
	for name, want := range map[string]string{
		metrics.HCacheFetchRTT: "cache.fetches",
		metrics.HCacheInsert:   "cache.inserts",
		metrics.HRTTask:        "rt.tasks_run",
	} {
		if got := snap.Sketches[name].Count; got != c(want) {
			t.Errorf("%s samples = %d, want %s = %d", name, got, want, c(want))
		}
	}

	// Utilization profile covers every worker plus each comm goroutine.
	if want := 2*2 + 2; len(snap.Workers) != want {
		t.Errorf("worker profiles = %d, want %d", len(snap.Workers), want)
	}
	var busy int64
	for _, w := range snap.Workers {
		busy += w.BusyNs
	}
	if busy == 0 {
		t.Error("no busy time recorded")
	}
	// Both directions of the 2-proc comm matrix carry traffic.
	if len(snap.Comm) != 2 {
		t.Errorf("comm edges = %d, want 2: %+v", len(snap.Comm), snap.Comm)
	}
	var msgs int64
	for _, e := range snap.Comm {
		if e.Messages == 0 || e.Bytes == 0 {
			t.Errorf("empty comm edge: %+v", e)
		}
		msgs += e.Messages
	}
	if msgs != c("rt.messages_sent") {
		t.Errorf("comm matrix total %d != rt.messages_sent %d", msgs, c("rt.messages_sent"))
	}
	// Spans were traced (phase slices at minimum).
	if len(snap.Spans) == 0 {
		t.Error("no trace spans recorded with TraceCapacity set")
	}

	// The exported JSON is parseable and carries the same counters.
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back paratreet.MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("cache.hits") != c("cache.hits") {
		t.Errorf("JSON round-trip lost cache.hits")
	}
	var csv bytes.Buffer
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 {
		t.Error("empty CSV export")
	}
}

// TestMetricsDisabledByDefault checks that a simulation without a
// registry reports no snapshot (the disabled path).
func TestMetricsDisabledByDefault(t *testing.T) {
	ps := particle.NewUniform(256, 3, paratreet.Box{Max: paratreet.V(1, 1, 1)})
	sim, err := paratreet.NewSimulation[gravity.CentroidData](paratreet.Config{
		Procs: 1, WorkersPerProc: 1,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
	}, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if snap := sim.MetricsSnapshot(); snap != nil {
		t.Fatalf("MetricsSnapshot() = %+v, want nil when Config.Metrics is unset", snap)
	}
}
