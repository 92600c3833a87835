// Command paratreet-bench regenerates the paper's evaluation tables and
// figures at laptop scale. Each subcommand prints a text rendering of one
// experiment; see EXPERIMENTS.md for paper-vs-measured commentary.
//
// Usage:
//
//	paratreet-bench [flags] <experiment>
//	paratreet-bench <experiment> [flags]
//
// Experiments: fig3 fig9 fig10 fig11 fig12 fig13 table1 table2 table3 lb
// fetchdepth sharedepth style knn serve incremental all
//
// Performance trajectory numbers come from benchmark/, not from here.
//
// Observability: -metrics collects per-run snapshots and writes them as
// one JSON array to stdout or -metrics-out, -trace N adds each run's spans
// to its snapshot (paratreet-trace analyzes that file and renders it for
// Perfetto), and -http serves live pprof/expvar/snapshot endpoints while
// experiments run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"paratreet"
	"paratreet/internal/experiments"
	"paratreet/internal/metrics"
)

// errUsage reports a command line the usage message has already rejected.
var errUsage = errors.New("usage")

func main() {
	if err := cli(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "paratreet-bench:", err)
		os.Exit(1)
	}
}

// cli runs one command line (without the program name): the experiment
// text goes to stdout, the metrics JSON to stdout or -metrics-out, and
// diagnostics to stderr.
func cli(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paratreet-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 0, "particle count (0 = experiment default)")
		iters      = fs.Int("iters", 0, "measured iterations (0 = default)")
		wpp        = fs.Int("wpp", 0, "workers per simulated process (0 = default)")
		quick      = fs.Bool("quick", false, "fast smoke-test scale")
		seed       = fs.Int64("seed", 42, "dataset seed")
		useMetrics = fs.Bool("metrics", false, "collect observability snapshots and emit them as JSON")
		metricsOut = fs.String("metrics-out", "-", "metrics JSON destination: - for stdout, or a file path")
		traceCap   = fs.Int("trace", 0, "trace-span ring capacity per run (0 = tracing off; implies -metrics)")
		httpAddr   = fs.String("http", "", "serve live pprof/expvar introspection and /snapshot on this address, e.g. :6060 (implies -metrics)")
	)
	var sweep []int
	fs.Func("workers", "comma-separated worker sweep, e.g. 1,2,4,8", func(s string) error {
		for _, tok := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v <= 0 {
				return fmt.Errorf("bad value %q", tok)
			}
			sweep = append(sweep, v)
		}
		return nil
	})
	var faults *paratreet.FaultConfig
	fs.Func("faults", "inject delivery faults, e.g. drop=0.02,dup=0.02,jitter=200us,pause=1ms,pauseprob=0.01,seed=7 (results are unchanged; timings and retry counters are not)", func(s string) (err error) {
		faults, err = paratreet.ParseFaultSpec(s)
		return err
	})
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: paratreet-bench [flags] <experiment>  (the experiment may also come first)")
		fmt.Fprintln(stderr, "experiments:", strings.Join(experiments.Names, " "), "all")
		fs.PrintDefaults()
	}
	// Go's flag package stops parsing at the first non-flag argument, so
	// "paratreet-bench knn -quick" would silently ignore -quick. Accept
	// the subcommand in front by rotating it behind the flags.
	if len(args) > 1 && !strings.HasPrefix(args[0], "-") {
		args = append(append([]string(nil), args[1:]...), args[0])
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}

	var collector *experiments.MetricsCollector
	if *useMetrics || *traceCap > 0 || *httpAddr != "" {
		collector = &experiments.MetricsCollector{TraceCapacity: *traceCap}
	}
	if *httpAddr != "" {
		startHTTP(*httpAddr, collector)
	}

	names := []string{fs.Arg(0)}
	if names[0] == "all" {
		names = experiments.All()
	}
	for _, name := range names {
		// Each set flag overrides its part of the experiment's own scale.
		opts := experiments.Scale(name, *quick)
		if *n > 0 {
			opts.N = *n
		}
		if *iters > 0 {
			opts.Iters = *iters
		}
		if sweep != nil {
			opts.Workers = sweep
		}
		if *wpp > 0 {
			opts.WorkersPerProc = *wpp
		}
		opts.Seed, opts.Faults, opts.Metrics = *seed, faults, collector
		if err := run(stdout, name, opts); err != nil {
			return err
		}
		if len(names) > 1 {
			fmt.Fprintln(stdout)
		}
	}

	if collector == nil {
		return nil
	}
	snaps := collector.Snapshots()
	warnDroppedSpans(stderr, snaps, *traceCap)
	writeTails(stderr, snaps)
	return emitMetrics(stdout, *metricsOut, snaps)
}

// run executes one named experiment and writes its text rendering to w.
func run(w io.Writer, name string, opts experiments.Options) error {
	out, err := experiments.Run(name, opts)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// emitMetrics writes the collected snapshots as one indented JSON array
// to stdout (dest "-") or to the named file.
func emitMetrics(stdout io.Writer, dest string, snaps []*paratreet.MetricsSnapshot) error {
	if dest == "-" || dest == "" {
		return metrics.WriteSnapshots(stdout, snaps)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := metrics.WriteSnapshots(f, snaps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTails prints per-run tail quantiles to stderr when -metrics is
// on: the sketch p50/p90/p99/p999 of every recorded distribution, a
// human-readable tail summary next to the machine-readable JSON the run
// emits.
func writeTails(w io.Writer, snaps []*paratreet.MetricsSnapshot) {
	for run, s := range snaps {
		if s == nil || len(s.Sketches) == 0 {
			continue
		}
		names := make([]string, 0, len(s.Sketches))
		for name := range s.Sketches {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "tails (run %d):\n", run)
		fmt.Fprintf(w, "  %-24s %10s %12s %12s %12s %12s\n", "series", "count", "p50", "p90", "p99", "p999")
		for _, name := range names {
			sk := s.Sketches[name]
			if sk.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-24s %10d %12d %12d %12d %12d\n",
				name, sk.Count, sk.P50, sk.P90, sk.P99, sk.P999)
		}
	}
}

// warnDroppedSpans reports trace-ring overflow on stderr: a wrapped ring
// silently truncates the timeline's beginning, which would otherwise
// masquerade as a short run in the analyzer.
func warnDroppedSpans(w io.Writer, snaps []*paratreet.MetricsSnapshot, traceCap int) {
	var dropped, total int64
	for _, s := range snaps {
		if s == nil {
			continue
		}
		dropped += s.SpansDropped
		total += s.SpansDropped + int64(len(s.Spans))
	}
	if dropped > 0 {
		fmt.Fprintf(w, "paratreet-bench: trace ring dropped %d of %d spans (%.1f%%); raise -trace above %d\n",
			dropped, total, 100*float64(dropped)/float64(total), traceCap)
	}
}
