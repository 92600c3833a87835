package serve_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"paratreet"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

// anchoredParticles builds a clustered dataset whose last 8 particles are
// pinned to the unit-box corners and whose interior is clamped inside
// them, so interior drift never changes the global bounding box and a
// Config.Incremental engine can take the delta-refresh path.
func anchoredParticles(n int, seed int64) []paratreet.Particle {
	ps := particle.NewClustered(n-8, seed, vec.UnitBox(), 6)
	for i := range ps {
		ps[i].Pos = paratreet.V(clampInterior(ps[i].Pos.X), clampInterior(ps[i].Pos.Y), clampInterior(ps[i].Pos.Z))
		ps[i].Radius = 0.004
	}
	id := int64(len(ps))
	for cx := 0; cx <= 1; cx++ {
		for cy := 0; cy <= 1; cy++ {
			for cz := 0; cz <= 1; cz++ {
				ps = append(ps, paratreet.Particle{
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

func clampInterior(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 0.99 {
		return 0.99
	}
	return x
}

// driftInterior nudges `movers` interior particles, leaving the corner
// anchors (the last 8) in place.
func driftInterior(ps []paratreet.Particle, seed int64, movers int) {
	rng := rand.New(rand.NewSource(seed))
	interior := len(ps) - 8
	for m := 0; m < movers; m++ {
		i := rng.Intn(interior)
		ps[i].Pos = paratreet.V(
			clampInterior(ps[i].Pos.X+(rng.Float64()-0.5)*0.08),
			clampInterior(ps[i].Pos.Y+(rng.Float64()-0.5)*0.08),
			clampInterior(ps[i].Pos.Z+(rng.Float64()-0.5)*0.08),
		)
	}
}

// TestEngineStatsDuringRefresh is the regression test for the
// observability/refresh race: NumParticles, Snapshot, and BuildStats (and
// the HTTP /stats and /snapshot endpoints built on them) are hammered
// from many goroutines while Refresh repeatedly swaps the resident
// dataset under the write lock. Before the read-side locking fix these
// reads raced SetParticles and the build; run under -race this test
// failed.
func TestEngineStatsDuringRefresh(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 8},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if n := eng.NumParticles(); n != 1000 && n != 800 {
					t.Errorf("NumParticles = %d mid-refresh, want 1000 or 800", n)
					return
				}
				if eng.Snapshot() == nil {
					t.Error("Snapshot = nil with metrics configured")
					return
				}
				if mode := eng.BuildStats().Mode; mode != "scratch" {
					t.Errorf("BuildStats.Mode = %q, want scratch", mode)
					return
				}
			}
		}()
	}
	for _, path := range []string{"/stats", "/snapshot"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}

	refreshes := 6
	if testing.Short() {
		refreshes = 3
	}
	for r := 0; r < refreshes; r++ {
		n := 1000
		if r%2 == 0 {
			n = 800
		}
		if err := eng.Refresh(testParticles(n)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestWavesRaceDeltaRefresh drives concurrent query waves against a
// Config.Incremental engine while delta refreshes toggle the resident
// dataset between two states. Every batch must be answered entirely from
// one state — bit-identical to the pre-drift answers or to the
// post-drift answers, never a blend — the refreshes must actually take
// the incremental path, and wave concurrency must actually occur.
func TestWavesRaceDeltaRefresh(t *testing.T) {
	const n = 1500
	cfg := testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree)
	cfg.Incremental = true
	ps0 := anchoredParticles(n, 7)
	ps1 := particle.Clone(ps0)
	driftInterior(ps1, 21, n/25)

	eng, err := serve.NewEngine(cfg, particle.Clone(ps0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	qs := testQueries(32)

	want0, err := eng.RunBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Refresh(particle.Clone(ps1)); err != nil {
		t.Fatal(err)
	}
	if st := eng.BuildStats(); st.Mode != "incremental" {
		t.Fatalf("delta refresh took mode %q (fallback %q), want incremental", st.Mode, st.FallbackReason)
	}
	want1, err := eng.RunBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want0, want1) {
		t.Fatal("drift did not change any answer; the blend check below would be vacuous")
	}
	if err := eng.Refresh(particle.Clone(ps0)); err != nil {
		t.Fatal(err)
	}
	if st := eng.BuildStats(); st.Mode != "incremental" {
		t.Fatalf("refresh back took mode %q (fallback %q), want incremental", st.Mode, st.FallbackReason)
	}

	// Refresher: toggle ps0 <-> ps1 with delta refreshes; queriers race it.
	pairs := 4
	if testing.Short() {
		pairs = 2
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < pairs; r++ {
			for _, ps := range [][]paratreet.Particle{ps1, ps0} {
				if err := eng.Refresh(particle.Clone(ps)); err != nil {
					t.Errorf("refresh %d: %v", r, err)
					return
				}
				if st := eng.BuildStats(); st.Mode != "incremental" {
					t.Errorf("refresh %d took mode %q (fallback %q)", r, st.Mode, st.FallbackReason)
					return
				}
			}
		}
	}()
	const queriers = 4
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rounds := 0
			for {
				got, err := eng.RunBatch(qs)
				if err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(got, want0) && !reflect.DeepEqual(got, want1) {
					t.Errorf("querier %d round %d: batch matches neither tree state — answers blended across a refresh", g, rounds)
					return
				}
				rounds++
				select {
				case <-done:
					if rounds > 0 {
						return
					}
				default:
				}
			}
		}(g)
	}
	wg.Wait()
	if peak := eng.PeakConcurrentWaves(); peak < 2 {
		t.Errorf("peak concurrent waves = %d, want >= 2", peak)
	}
}
