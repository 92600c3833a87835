package metrics

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHistogramObserveRacesSnapshotReset hammers one sketch with
// observers while other goroutines snapshot and the registry resets:
// under -race this is the memory-safety check; logically every snapshot
// must be internally consistent — its power-of-two histogram view sums
// to its Count, with ascending buckets, and its quantiles are monotone.
func TestHistogramObserveRacesSnapshotReset(t *testing.T) {
	reg := NewRegistry(Options{})
	sk := reg.Sketch("race.hist_ns")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
					sk.Observe(rng.Int63n(1 << 30))
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := sk.Snapshot()
		if s.Count < 0 || s.Sum < 0 {
			t.Errorf("negative aggregate: %+v", s)
			break
		}
		prevLe, total := int64(-1), int64(0)
		for _, b := range s.Buckets {
			if b.Le <= prevLe {
				t.Errorf("buckets not ascending: %+v", s.Buckets)
				break
			}
			prevLe = b.Le
			total += b.Count
		}
		if total != s.Count {
			t.Errorf("buckets sum to %d, Count %d", total, s.Count)
		}
		if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999) {
			t.Errorf("quantiles not monotone: p50 %d p90 %d p99 %d p999 %d", s.P50, s.P90, s.P99, s.P999)
		}
		_ = sk.Quantile(0.99)
		if i%20 == 0 {
			reg.Reset()
		}
	}
	close(stop)
	wg.Wait()
}

// TestGauge checks Set/Add semantics, nil safety, snapshot inclusion,
// and Reset.
func TestGauge(t *testing.T) {
	reg := NewRegistry(Options{})
	g := reg.Gauge("test.depth")
	g.Set(7)
	g.Add(3)
	if g.Value() != 10 {
		t.Fatalf("gauge = %d, want 10", g.Value())
	}
	if g2 := reg.Gauge("test.depth"); g2 != g {
		t.Fatal("same name returned a different gauge")
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var nilReg *Registry
	if nilReg.Gauge("x") != nil {
		t.Fatal("nil registry must hand out nil gauges")
	}
	snap := reg.Snapshot()
	if snap.Gauges["test.depth"] != 10 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
	reg.Reset()
	if g.Value() != 0 {
		t.Fatal("Reset did not clear the gauge")
	}
}
