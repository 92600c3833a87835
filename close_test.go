package paratreet_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/experiments"
	"paratreet/internal/gravity"
	"paratreet/internal/metrics"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

// closeConfig is the machine both shutdown tests run: two processes of two
// workers on a link that drops and duplicates cache traffic, so fetch
// retries and duplicate fills are in flight during the run.
func closeConfig(t *testing.T) paratreet.Config {
	t.Helper()
	faults, err := paratreet.ParseFaultSpec("drop=0.05,dup=0.05")
	if err != nil {
		t.Fatal(err)
	}
	return paratreet.Config{Procs: 2, WorkersPerProc: 2, Faults: faults}
}

// requireGoroutinesBack waits up to 2 s for the goroutine count to fall
// back to before, and fails with every goroutine's stack if it does not.
func requireGoroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines outlive shutdown (started with %d):\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseReleasesGoroutines runs a faulted gravity simulation and
// closes it: every goroutine the machine started — workers, link pumps,
// delayed deliveries, fetch retries — must be gone afterwards. A goroutine
// waiting on a channel nobody closes would outlive every Simulation.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	sim, err := paratreet.NewSimulation[CD](closeConfig(t), gravity.Accumulator{}, gravity.Codec{}, uniformParticles(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2, gravity.Driver(gravity.Params{G: 1, Theta: 0.5, Soft: 1e-3}, 1e-3)); err != nil {
		t.Fatal(err)
	}
	sim.Close()
	requireGoroutinesBack(t, before)
}

// TestServeShutdownReleasesGoroutines is the query service's twin: an
// engine on the same faulted machine answers concurrent queries through
// the server's batcher with a health collector sampling, then shuts down
// as paratreet-serve does — Server.Drain, then its deferred
// HealthCollector.Stop and Engine.Close — and every goroutine the
// batcher, watchdog, collector and machine started must be gone.
func TestServeShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := closeConfig(t)
	cfg.Metrics = paratreet.NewMetricsRegistry(paratreet.MetricsOptions{})
	eng, err := serve.NewEngine(cfg, uniformParticles(2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng, serve.ServerConfig{Batch: serve.BatchConfig{MaxWaves: 2}})
	health := metrics.StartHealth(cfg.Metrics, metrics.HealthConfig{Interval: time.Millisecond})

	var wg sync.WaitGroup
	for _, q := range experiments.NewQuerySet(32, 5, vec.UnitBox(), 8, 0.08) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := srv.Batcher().Submit(q, time.Time{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	srv.Drain()
	health.Stop()
	eng.Close()
	requireGoroutinesBack(t, before)
}
