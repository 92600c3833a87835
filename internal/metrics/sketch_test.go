package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// exactQuantile is the reference the sketch is tested against: the
// 0-based floor(q*n) order statistic of the sorted sample, the same rank
// convention Sketch.Quantile uses.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// checkQuantiles asserts every tested quantile is within the sketch's
// documented relative error bound (1/64, from 64 sub-buckets per power
// of two) of the exact order statistic.
func checkQuantiles(t *testing.T, sk *Sketch, values []int64, label string) {
	t.Helper()
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got := sk.Quantile(q)
		want := exactQuantile(sorted, q)
		// One sub-bucket of relative error, plus one unit of slack for the
		// exact-region boundary.
		tol := math.Ceil(float64(want)/64) + 1
		if math.Abs(float64(got-want)) > tol {
			t.Errorf("%s: q=%v got %d want %d (tolerance %.0f)", label, q, got, want, tol)
		}
	}
}

// TestSketchQuantileDistributions property-tests the sketch against
// exact sorted-sample quantiles across distributions with very different
// shapes: uniform, exponential-like tails, tiny exact-region values, and
// constants.
func TestSketchQuantileDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"uniform":     func() int64 { return rng.Int63n(1_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"small-exact": func() int64 { return rng.Int63n(100) }, // all below the exact threshold
		"constant":    func() int64 { return 4242 },
		"wide":        func() int64 { return rng.Int63n(int64(1) << 40) },
	}
	for label, gen := range dists {
		sk := NewSketch()
		values := make([]int64, 20000)
		for i := range values {
			values[i] = gen()
			sk.Observe(values[i])
		}
		checkQuantiles(t, sk, values, label)
		if sk.Count() != int64(len(values)) {
			t.Errorf("%s: count %d want %d", label, sk.Count(), len(values))
		}
	}
}

// TestSketchQuantileRandomized fuzzes many small random samples: random
// size, random magnitude scale, fresh seed per round.
func TestSketchQuantileRandomized(t *testing.T) {
	for round := 0; round < 50; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		n := 1 + rng.Intn(500)
		shift := uint(rng.Intn(50))
		sk := NewSketch()
		values := make([]int64, n)
		for i := range values {
			values[i] = rng.Int63n(int64(1)<<shift + 1)
			sk.Observe(values[i])
		}
		checkQuantiles(t, sk, values, "randomized")
	}
}

// TestSketchEmpty checks the zero state: no observations means zero
// count and zero quantiles, and Reset returns there.
func TestSketchEmpty(t *testing.T) {
	sk := NewSketch()
	if sk.Count() != 0 || sk.Quantile(0.5) != 0 {
		t.Fatalf("empty sketch: count %d q50 %d", sk.Count(), sk.Quantile(0.5))
	}
	s := sk.Snapshot()
	if s.Count != 0 || s.P99 != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	sk.Observe(100)
	sk.Reset()
	if sk.Count() != 0 || sk.Quantile(1) != 0 {
		t.Fatalf("reset sketch not empty: count %d", sk.Count())
	}
}

// TestSketchSingleValue checks that one observation dominates every
// quantile exactly (clamping to observed min/max must make even sketch
// midpoints exact here).
func TestSketchSingleValue(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 1 << 20, (1 << 40) + 12345} {
		sk := NewSketch()
		sk.Observe(v)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := sk.Quantile(q); got != v {
				t.Errorf("single value %d: q=%v got %d", v, q, got)
			}
		}
	}
}

// TestSketchNegativeClamps checks negative observations clamp to zero
// rather than corrupting bucket indexing.
func TestSketchNegativeClamps(t *testing.T) {
	sk := NewSketch()
	sk.Observe(-5)
	if got := sk.Quantile(0.5); got != 0 {
		t.Fatalf("negative observation: q50 %d want 0", got)
	}
	if sk.Count() != 1 {
		t.Fatalf("count %d want 1", sk.Count())
	}
}

// TestSketchMergeEdgeCases covers Merge with empty operands, single
// values, and disjoint ranges: merged quantiles must match a sketch fed
// the union stream.
func TestSketchMergeEdgeCases(t *testing.T) {
	t.Run("both-empty", func(t *testing.T) {
		a, b := NewSketch(), NewSketch()
		a.Merge(b)
		if a.Count() != 0 || a.Quantile(0.5) != 0 {
			t.Fatalf("empty+empty: count %d", a.Count())
		}
	})
	t.Run("into-empty", func(t *testing.T) {
		a, b := NewSketch(), NewSketch()
		b.Observe(500)
		a.Merge(b)
		if a.Count() != 1 || a.Quantile(0.5) != 500 {
			t.Fatalf("empty<-single: count %d q50 %d", a.Count(), a.Quantile(0.5))
		}
	})
	t.Run("empty-operand", func(t *testing.T) {
		a, b := NewSketch(), NewSketch()
		a.Observe(500)
		a.Merge(b)
		if a.Count() != 1 || a.Quantile(0.5) != 500 || a.Quantile(0) != 500 || a.Quantile(1) != 500 {
			t.Fatalf("single<-empty changed: count %d", a.Count())
		}
	})
	t.Run("nil-receiver-and-operand", func(t *testing.T) {
		var nilSk *Sketch
		nilSk.Merge(NewSketch()) // must not panic
		nilSk.Observe(1)
		a := NewSketch()
		a.Observe(9)
		a.Merge(nilSk)
		if a.Count() != 1 {
			t.Fatalf("merge nil operand changed count: %d", a.Count())
		}
	})
	t.Run("disjoint-ranges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		a, b := NewSketch(), NewSketch()
		var values []int64
		for i := 0; i < 5000; i++ {
			lo := rng.Int63n(1000)
			hi := (int64(1) << 30) + rng.Int63n(int64(1)<<30)
			a.Observe(lo)
			b.Observe(hi)
			values = append(values, lo, hi)
		}
		a.Merge(b)
		if a.Count() != int64(len(values)) {
			t.Fatalf("merged count %d want %d", a.Count(), len(values))
		}
		checkQuantiles(t, a, values, "disjoint")
		// Min must come from a's range, max from b's.
		s := a.Snapshot()
		if s.Min >= 1000 || s.Max < int64(1)<<30 {
			t.Fatalf("merged extrema not folded: min %d max %d", s.Min, s.Max)
		}
	})
	t.Run("matches-union-stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		a, b, union := NewSketch(), NewSketch(), NewSketch()
		for i := 0; i < 10000; i++ {
			v := int64(rng.ExpFloat64() * 100_000)
			if i%2 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			union.Observe(v)
		}
		a.Merge(b)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got, want := a.Quantile(q), union.Quantile(q); got != want {
				t.Errorf("q=%v merged %d union %d", q, got, want)
			}
		}
	})
}

// TestSketchConcurrentObserve races Observe against Merge, Quantile, and
// Snapshot from many goroutines; under -race this is the memory-safety
// check, and the final count must be exact.
func TestSketchConcurrentObserve(t *testing.T) {
	sk := NewSketch()
	other := NewSketch()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				sk.Observe(rng.Int63n(1_000_000))
				if i%100 == 0 {
					_ = sk.Quantile(0.99)
					_ = sk.Snapshot()
					other.Merge(sk)
				}
			}
		}(g)
	}
	wg.Wait()
	if sk.Count() != goroutines*perG {
		t.Fatalf("count %d want %d", sk.Count(), goroutines*perG)
	}
}

// TestRegistrySketch checks registry integration: create-on-first-use
// identity, nil-registry nil sketch, snapshot inclusion, and Reset.
func TestRegistrySketch(t *testing.T) {
	reg := NewRegistry(Options{})
	sk := reg.Sketch("test.lat_ns")
	if sk2 := reg.Sketch("test.lat_ns"); sk2 != sk {
		t.Fatal("same name returned a different sketch")
	}
	var nilReg *Registry
	if nilReg.Sketch("x") != nil {
		t.Fatal("nil registry must hand out nil sketches")
	}
	sk.Observe(1000)
	snap := reg.Snapshot()
	got, ok := snap.Sketches["test.lat_ns"]
	if !ok || got.Count != 1 {
		t.Fatalf("snapshot missing sketch: %+v", snap.Sketches)
	}
	reg.Reset()
	if sk.Count() != 0 {
		t.Fatal("Reset did not clear the sketch")
	}
}

// TestSketchSnapshotMatchesQuantile property-tests the one rank rule: on
// a quiescent sketch, the snapshot's P-values equal Quantile at the same
// q, and its Count equals Count(), over random sizes and magnitudes.
func TestSketchSnapshotMatchesQuantile(t *testing.T) {
	for round := 0; round < 100; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		sk := NewSketch()
		n := 1 + rng.Intn(2000)
		shift := uint(rng.Intn(62))
		for i := 0; i < n; i++ {
			sk.Observe(rng.Int63n(int64(1)<<shift + 1))
		}
		s := sk.Snapshot()
		if s.Count != sk.Count() {
			t.Fatalf("round %d: snapshot count %d, Count() %d", round, s.Count, sk.Count())
		}
		for _, c := range []struct {
			q   float64
			got int64
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}, {0.999, s.P999}} {
			if want := sk.Quantile(c.q); c.got != want {
				t.Errorf("round %d (n=%d, 2^%d): snapshot q=%v %d, Quantile %d", round, n, shift, c.q, c.got, want)
			}
		}
	}
}
