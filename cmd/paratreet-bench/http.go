package main

import (
	"fmt"
	"net/http"
	"os"

	"paratreet/internal/experiments"
	"paratreet/internal/metrics"
	"paratreet/internal/serve"
)

// startHTTP serves live introspection while experiments run:
//
//	/debug/pprof/  net/http/pprof profiles (CPU, heap, goroutine, ...)
//	/debug/vars    expvar-style JSON, including a "paratreet" var holding
//	               the live registry's counters/sketches/spans
//	/snapshot      the live registry's snapshot as indented JSON
//
// "Live" means the registry of the most recently started simulation run;
// snapshotting it concurrently with the run is safe (counters and the
// span ring are lock-protected or sharded). Before the first run both
// endpoints report null/503.
//
// Everything is registered on an instance-scoped mux via
// serve.AttachIntrospection — nothing touches http.DefaultServeMux or the
// global expvar table, so repeated -http sessions in one process (tests,
// library embedders) cannot panic on duplicate registration.
func startHTTP(addr string, c *experiments.MetricsCollector) {
	mux := introspectionMux(c)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "paratreet-bench: http:", err)
		}
	}()
}

// introspectionMux builds the instance-scoped handler startHTTP serves;
// split out so tests can drive the endpoints without binding a port.
func introspectionMux(c *experiments.MetricsCollector) *http.ServeMux {
	mux := http.NewServeMux()
	serve.AttachIntrospection(mux, func() *metrics.Snapshot {
		return c.Live().Snapshot()
	})
	return mux
}
