// Command paratreet-serve holds a resident spatial tree and answers
// ad-hoc kNN, fixed-radius range, and collision-probe queries over
// HTTP/JSON. Concurrent requests are coalesced by a wave batcher into
// shared traversal waves over the resident tree (see DESIGN.md §11).
//
// Usage:
//
//	paratreet-serve [flags]
//
// Endpoints:
//
//	POST /query/knn    {"pos":[x,y,z],"k":8}
//	POST /query/range  {"pos":[x,y,z],"radius":0.05}
//	POST /query/probe  {"pos":[x,y,z],"radius":0.01,"vel":[x,y,z],"dt":0.001}
//	GET  /healthz /readyz /stats /metrics /snapshot /debug/vars /debug/pprof/
//
// /healthz is liveness (200 while the process runs); /readyz is
// readiness and answers 503 while draining or out of SLO; /metrics is
// Prometheus text exposition. The -slo-* flags arm the SLO watchdog; the
// -health-interval flag paces the runtime-health collector.
//
// SIGINT/SIGTERM drains gracefully: readiness flips to 503 first, a
// -drain-grace window lets load balancers observe it, then intake stops,
// queued and in-flight waves complete and deliver, and the process exits
// 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paratreet"
	"paratreet/internal/metrics"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/trace"
)

// options collects every daemon flag; run takes it whole so the flag
// set and the runtime wiring stay in one-to-one correspondence.
type options struct {
	addr       string
	n          int
	dist       string
	seed       int64
	procs      int
	wpp        int
	treeKind   string
	decompKind string
	policy     string
	bucket     int

	batch       int
	queueCap    int
	waves       int
	timeout     time.Duration
	faults      string
	incremental bool

	traceCap   int
	traceOut   string
	metricsOut string

	healthInterval time.Duration
	sloWindow      time.Duration
	sloInterval    time.Duration
	sloP99         time.Duration
	sloMaxErr      float64
	sloMinSamples  int
	drainGrace     time.Duration
}

// Connection limits: a peer that trickles its request, or holds a
// keep-alive connection open without sending one, is cut off instead of
// pinning a connection for as long as it likes. Request bodies are a few
// hundred bytes (and capped by serve.MaxBodyBytes), so the read limits are
// about slow peers, not big uploads; answers are bounded by the wave, which
// the per-request deadline covers, so there is no write timeout to race it.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&o.n, "n", 40000, "resident particle count")
	flag.StringVar(&o.dist, "dist", "clustered", "particle distribution: uniform, plummer, clustered, cosmo")
	flag.Int64Var(&o.seed, "seed", 42, "dataset seed")
	flag.IntVar(&o.procs, "procs", 4, "simulated processes")
	flag.IntVar(&o.wpp, "wpp", 2, "workers per simulated process")
	flag.StringVar(&o.treeKind, "tree", "oct", "tree type: oct, kd, longest")
	flag.StringVar(&o.decompKind, "decomp", "sfc", "decomposition: sfc, hilbert, oct, orb")
	flag.StringVar(&o.policy, "policy", "waitfree", "cache policy: waitfree, xwrite, perthread")
	flag.IntVar(&o.bucket, "bucket", 16, "max particles per leaf")
	flag.IntVar(&o.batch, "batch", 32, "max queries coalesced into one wave")
	flag.IntVar(&o.queueCap, "queue", 0, "admission queue bound (0 = 4x batch)")
	flag.IntVar(&o.waves, "waves", 2, "max concurrently running waves")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Second, "default per-request deadline")
	flag.StringVar(&o.faults, "faults", "", "inject delivery faults, e.g. drop=0.02,dup=0.02,jitter=200us,seed=7")
	flag.BoolVar(&o.incremental, "incremental", false, "patch the resident tree incrementally on refresh when particles moved only slightly")
	flag.IntVar(&o.traceCap, "trace", 0, "trace-span ring capacity (0 = tracing off)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write spans as Chrome Trace Event JSON here on shutdown (implies -trace 65536 when -trace is unset)")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the final metrics snapshot as JSON here on shutdown")
	flag.DurationVar(&o.healthInterval, "health-interval", time.Second, "runtime-health sampling cadence (0 disables the collector)")
	flag.DurationVar(&o.sloWindow, "slo-window", 10*time.Second, "SLO rolling evaluation window")
	flag.DurationVar(&o.sloInterval, "slo-interval", time.Second, "SLO evaluation cadence and window slot width")
	flag.DurationVar(&o.sloP99, "slo-p99", 0, "SLO p99 request-latency objective (0 disables)")
	flag.Float64Var(&o.sloMaxErr, "slo-maxerr", 0, "SLO max error-rate objective, e.g. 0.05 (0 disables)")
	flag.IntVar(&o.sloMinSamples, "slo-min-samples", 20, "min requests in window before the SLO evaluates")
	flag.DurationVar(&o.drainGrace, "drain-grace", 0, "after SIGTERM, keep serving with /readyz=503 this long before stopping intake")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "paratreet-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	}
	if o.queueCap < 0 {
		return fmt.Errorf("-queue must be >= 0, got %d", o.queueCap)
	}
	if o.traceOut != "" && o.traceCap == 0 {
		o.traceCap = 65536
	}
	cfg := paratreet.Config{
		Procs:          o.procs,
		WorkersPerProc: o.wpp,
		BucketSize:     o.bucket,
		Incremental:    o.incremental,
		Metrics:        paratreet.NewMetricsRegistry(paratreet.MetricsOptions{TraceCapacity: o.traceCap}),
	}
	var err error
	if cfg.Tree, err = paratreet.ParseTree(o.treeKind); err != nil {
		return fmt.Errorf("-tree: %w", err)
	}
	if cfg.Decomp, err = paratreet.ParseDecomp(o.decompKind); err != nil {
		return fmt.Errorf("-decomp: %w", err)
	}
	if cfg.CachePolicy, err = paratreet.ParseCachePolicy(o.policy); err != nil {
		return fmt.Errorf("-policy: %w", err)
	}
	if o.faults != "" {
		if cfg.Faults, err = paratreet.ParseFaultSpec(o.faults); err != nil {
			return err
		}
	}

	ps, err := particle.Generate(o.dist, o.n, o.seed)
	if err != nil {
		return fmt.Errorf("-dist: %w", err)
	}
	fmt.Printf("paratreet-serve: building resident %s tree over %d %s particles (%d procs x %d workers)\n",
		o.treeKind, o.n, o.dist, o.procs, o.wpp)
	eng, err := serve.NewEngine(cfg, ps)
	if err != nil {
		return err
	}
	defer eng.Close()

	scfg := serve.ServerConfig{
		Batch: serve.BatchConfig{
			MaxBatch: o.batch,
			MaxQueue: o.queueCap,
			MaxWaves: o.waves,
		},
		DefaultTimeout: o.timeout,
		SLO: serve.SLOConfig{
			Window:       o.sloWindow,
			Interval:     o.sloInterval,
			MaxErrorRate: o.sloMaxErr,
			MaxP99:       o.sloP99,
			MinSamples:   o.sloMinSamples,
		},
	}
	srv := serve.NewServer(eng, scfg)

	if o.healthInterval > 0 {
		bat := srv.Batcher()
		reg := cfg.Metrics
		health := metrics.StartHealth(reg, metrics.HealthConfig{
			Interval: o.healthInterval,
			// Fold serve saturation into the same tick: queue depth and
			// in-flight waves move with every pump, but the ticker
			// guarantees a fresh reading even on an idle batcher.
			Extra: func() {
				reg.Gauge(metrics.GServeQueueDepth).Set(int64(bat.QueueDepth()))
				reg.Gauge(metrics.GServeInflightWaves).Set(int64(bat.InFlight()))
			},
		})
		defer health.Stop()
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("paratreet-serve: listening on http://%s\n", ln.Addr())
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}

	// Graceful drain, in readiness-first order: flip /readyz to 503 while
	// still serving (load balancers steer away during the grace window),
	// then stop accepting connections and finish in-flight HTTP
	// exchanges, then flush every queued query through its wave.
	fmt.Println("paratreet-serve: signal received, draining")
	srv.BeginDrain()
	if o.drainGrace > 0 {
		time.Sleep(o.drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "paratreet-serve: http shutdown: %v\n", err)
	}
	srv.Drain()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "paratreet-serve: serve: %v\n", err)
	}

	if o.traceOut != "" || o.metricsOut != "" {
		snap := eng.Snapshot()
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, snap); err != nil {
				return err
			}
			fmt.Printf("paratreet-serve: wrote trace to %s\n", o.traceOut)
		}
		if o.metricsOut != "" {
			if err := writeMetrics(o.metricsOut, snap); err != nil {
				return err
			}
			fmt.Printf("paratreet-serve: wrote metrics to %s\n", o.metricsOut)
		}
	}
	fmt.Println("paratreet-serve: drained, bye")
	return nil
}

func writeTrace(dest string, snap *paratreet.MetricsSnapshot) error {
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, []*paratreet.MetricsSnapshot{snap}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetrics(dest string, snap *paratreet.MetricsSnapshot) error {
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
