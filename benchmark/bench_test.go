package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"paratreet/internal/particle"
)

// Workload-design guards, run at -quick scale so `go test` covers the
// harness in seconds. Their numbers are never compared with anything.

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON: BENCHMARK.json names exactly the
// workloads and metrics the program prints, with the same units,
// directions and bounds, inside the contract's limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}

	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerDefs))
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(b.PerLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.Name)
		}
	}

	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	for _, arg := range b.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// particleChecksum hashes IDs, masses, positions and radii — everything
// the generators decide — independent of slice order.
func particleChecksum(ps []particle.Particle) uint64 {
	var sum uint64
	var buf [48]byte
	for i := range ps {
		p := &ps[i]
		for j, f := range []float64{float64(p.ID), p.Mass, p.Pos.X, p.Pos.Y, p.Pos.Z, p.Radius} {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(f))
		}
		h := fnv.New64a()
		h.Write(buf[:])
		sum += h.Sum64()
	}
	return sum
}

// poolHash fingerprints the request pool.
func poolHash(pool []poolEntry) uint64 {
	h := fnv.New64a()
	for i := range pool {
		h.Write([]byte(pool[i].path))
		h.Write(pool[i].body)
	}
	return h.Sum64()
}

// scheduleHash fingerprints an arrival schedule.
func scheduleHash(s []time.Duration) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range s {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSameSeedSameInputs: the same seed gives identical particles, request
// pool and arrival schedule; another seed gives others.
func TestSameSeedSameInputs(t *testing.T) {
	type fingerprint struct{ gravity, knn, rebuild, serve0, serve1, pool, schedule uint64 }
	inputs := func(seed int64) fingerprint {
		in := newServeInputs(scaled(serveN, true), seed)
		return fingerprint{
			gravity:  particleChecksum(gravityParticles(scaled(gravityN, true), seed)),
			knn:      particleChecksum(knnParticles(scaled(knnN, true), seed)),
			rebuild:  particleChecksum(anchoredClustered(scaled(rebuildN, true), seed, 0)),
			serve0:   particleChecksum(in.states[0]),
			serve1:   particleChecksum(in.states[1]),
			pool:     poolHash(in.pool),
			schedule: scheduleHash(poissonSchedule(rand.New(rand.NewSource(seed+3)), serveSteadyRate, time.Second)),
		}
	}
	a, b, c := inputs(7), inputs(7), inputs(8)
	if a != b {
		t.Errorf("seed 7 twice: %+v vs %+v", a, b)
	}
	if a.gravity == c.gravity || a.knn == c.knn || a.rebuild == c.rebuild || a.serve0 == c.serve0 || a.pool == c.pool || a.schedule == c.schedule {
		t.Errorf("seeds 7 and 8 share an input: %+v vs %+v", a, c)
	}
	if a.serve0 == a.serve1 {
		t.Error("the two serve particle states are identical; refresh would have nothing to patch")
	}
}

// TestDriftKeepsAnchors: the drift never moves a corner anchor, so the
// bounding box — and with it the incremental path — survives every step.
func TestDriftKeepsAnchors(t *testing.T) {
	ps := anchoredClustered(2000, 1, 0)
	box := particle.BoundingBox(ps)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		drift(ps, rng, 200, rebuildDrift)
	}
	if got := particle.BoundingBox(ps); got != box {
		t.Errorf("bounding box moved from %v to %v", box, got)
	}
}

// quickRun runs one workload at -quick scale and returns its output and
// decoded result line.
func quickRun(t *testing.T, args ...string) (string, resultJSON) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-quick", "-seconds", "2"}, args...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res resultJSON
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !strings.Contains(lines[0], `"quick":true`) {
		t.Errorf("a -quick run must be marked in its stamp: %s", lines[0])
	}
	return stdout.String(), res
}

// checkPrinted verifies every metric of defs is in the result line with
// its unit and printed exactly once in the table, and nothing else is.
func checkPrinted(t *testing.T, out string, res resultJSON, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, the catalog %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing from the result line", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		row := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(d.Unit) + `$`)
		if n := len(row.FindAllString(out, -1)); n != 1 {
			t.Errorf("metric %s is printed %d times with its unit, want once", d.Name, n)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestQuickRuns drives every workload untraced and traced, checks the
// output contract, the bypass predictions and the span structure.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	layer := map[string]map[string]float64{}
	for _, w := range workloadNames {
		out, res := quickRun(t, "-workload", w, "-trace", "0")
		checkPrinted(t, out, res, endToEndDefs)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, name, m.Value)
			}
		}

		spanFile := filepath.Join(t.TempDir(), "spans.json")
		out, res = quickRun(t, "-workload", w, "-trace", "1", "-trace-out", spanFile)
		checkPrinted(t, out, res, perLayerDefs)
		layer[w] = map[string]float64{}
		for name, m := range res.Metrics {
			layer[w][name] = m.Value
		}
		if !strings.Contains(out, "(unexplained residual)") {
			t.Errorf("%s: the traced run printed no explain table", w)
		}

		raw, err := os.ReadFile(spanFile)
		if err != nil {
			t.Fatal(err)
		}
		log := &spanLog{}
		if err := json.Unmarshal(raw, &log.spans); err != nil {
			t.Fatalf("%s: span file: %v", w, err)
		}
		if len(log.spans) == 0 {
			t.Errorf("%s: no spans recorded", w)
		}
		if err := log.checkTiling(); err != nil {
			t.Errorf("%s: span children do not tile their parent: %v", w, err)
		}
	}

	// The bypass predictions: each workload must leave the layers it is
	// meant to bypass untouched, and exercise the ones it is meant to.
	zero := func(w, name string) {
		t.Helper()
		if v := layer[w][name]; v != 0 {
			t.Errorf("%s: %s = %v, want 0", w, name, v)
		}
	}
	positive := func(w, name string) {
		t.Helper()
		if v := layer[w][name]; !(v > 0) {
			t.Errorf("%s: %s = %v, want > 0", w, name, v)
		}
	}
	zero(wKNN, "rt.messages_per_iter")
	zero(wKNN, "cache.requests_per_iter")
	zero(wRebuild, "traverse.visits_per_iter")
	zero(wRebuild, "core.fallback_builds")
	zero(wServe, "core.fallback_builds")
	positive(wGravity, "cache.requests_per_iter")
	positive(wGravity, "traverse.visits_per_iter")
	positive(wKNN, "traverse.visits_per_iter")
	positive(wRebuild, "core.patch_reuse_share")
	if sat, steady := layer[wServe]["serve.batch_size_mean.saturate"], layer[wServe]["serve.batch_size_mean.steady"]; !(sat > steady) {
		t.Errorf("serve_mixed: saturate batches (%v) should be larger than steady ones (%v)", sat, steady)
	}
	// At full scale the medians of the spans add up to within 2% of the
	// median step; the handful of millisecond steps a -quick run times
	// leave the medians less room to agree.
	for _, w := range []string{wGravity, wKNN, wRebuild} {
		if share := layer[w]["bench.explained_share"]; share < 0.90 {
			t.Errorf("%s: the explain table accounts for %.1f%% of the median step, want >= 90%% at -quick scale", w, 100*share)
		}
	}
}

// TestSpanTilingRejectsOverlap: the tiling check itself catches a child
// that leaves its parent and siblings that overlap.
func TestSpanTilingRejectsOverlap(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	good := &spanLog{epoch: at(0)}
	root := good.add("step", at(0), at(10), -1, 0)
	good.add("a", at(0), at(4), root, 0)
	good.add("b", at(4), at(10), root, 0)
	if err := good.checkTiling(); err != nil {
		t.Errorf("tiling spans rejected: %v", err)
	}
	if self := good.selfTimes()["step"]; len(self) != 1 || self[0] != 0 {
		t.Errorf("fully tiled parent has self time %v, want 0", self)
	}

	escape := &spanLog{epoch: at(0)}
	root = escape.add("step", at(0), at(10), -1, 0)
	escape.add("a", at(5), at(11), root, 0)
	if escape.checkTiling() == nil {
		t.Error("a child that ends after its parent was accepted")
	}

	overlap := &spanLog{epoch: at(0)}
	root = overlap.add("step", at(0), at(10), -1, 0)
	overlap.add("a", at(0), at(6), root, 0)
	overlap.add("b", at(5), at(10), root, 0)
	if overlap.checkTiling() == nil {
		t.Error("overlapping siblings were accepted")
	}
}
