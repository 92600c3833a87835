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
// Observability: -metrics collects per-run snapshots, -trace N adds span
// tracing, -trace-out exports a Chrome Trace Event file for Perfetto and
// the paratreet-trace analyzer, and -http serves live pprof/expvar/
// snapshot endpoints while experiments run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"paratreet"
	"paratreet/internal/experiments"
	"paratreet/internal/trace"
)

func main() {
	var (
		n          = flag.Int("n", 0, "particle count (0 = experiment default)")
		iters      = flag.Int("iters", 0, "measured iterations (0 = default)")
		workers    = flag.String("workers", "", "comma-separated worker sweep, e.g. 1,2,4,8")
		wpp        = flag.Int("wpp", 0, "workers per simulated process (0 = default)")
		quick      = flag.Bool("quick", false, "fast smoke-test scale")
		seed       = flag.Int64("seed", 42, "dataset seed")
		useMetrics = flag.Bool("metrics", false, "collect observability snapshots and emit them as JSON")
		metricsOut = flag.String("metrics-out", "-", "metrics JSON destination: - for stdout, or a file path")
		traceCap   = flag.Int("trace", 0, "trace-span ring capacity per run (0 = tracing off; implies -metrics)")
		traceOut   = flag.String("trace-out", "", "write spans as Chrome Trace Event JSON to this file (implies -trace 65536 when -trace is unset); spans are then omitted from the metrics JSON")
		httpAddr   = flag.String("http", "", "serve live pprof/expvar introspection and /snapshot on this address, e.g. :6060 (implies -metrics)")
		faults     = flag.String("faults", "", "inject delivery faults, e.g. drop=0.02,dup=0.02,jitter=200us,pause=1ms,pauseprob=0.01,seed=7 (results are unchanged; timings and retry counters are not)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment>  (the experiment may also come first)\n", os.Args[0])
		fmt.Fprintln(os.Stderr, "experiments: fig3 fig9 fig10 fig11 fig12 fig13 table1 table2 table3 lb fetchdepth sharedepth style knn serve incremental all")
		flag.PrintDefaults()
	}
	// Go's flag package stops parsing at the first non-flag argument, so
	// "paratreet-bench knn -quick" would silently ignore -quick. Accept
	// the subcommand in front by rotating it behind the flags.
	if len(os.Args) > 2 && !strings.HasPrefix(os.Args[1], "-") {
		rotated := make([]string, 0, len(os.Args))
		rotated = append(rotated, os.Args[0])
		rotated = append(rotated, os.Args[2:]...)
		rotated = append(rotated, os.Args[1])
		os.Args = rotated
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	sc := scale{quick: *quick, n: *n, iters: *iters}
	if *workers != "" {
		for _, tok := range strings.Split(*workers, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("bad -workers value %q", tok))
			}
			sc.workers = append(sc.workers, v)
		}
	}
	opts := experiments.Defaults()
	if *quick {
		opts = experiments.Quick()
	}
	if *n > 0 {
		opts.N = *n
	}
	if *iters > 0 {
		opts.Iters = *iters
	}
	if *wpp > 0 {
		opts.WorkersPerProc = *wpp
	}
	opts.Seed = *seed
	if sc.workers != nil {
		opts.Workers = sc.workers
	}
	if *faults != "" {
		fc, err := paratreet.ParseFaultSpec(*faults)
		if err != nil {
			fatal(err)
		}
		opts.Faults = fc
	}
	if *traceOut != "" && *traceCap == 0 {
		*traceCap = 65536
	}
	if *useMetrics || *traceCap > 0 || *httpAddr != "" {
		opts.Metrics = &experiments.MetricsCollector{TraceCapacity: *traceCap}
	}
	if *httpAddr != "" {
		startHTTP(*httpAddr, opts.Metrics)
	}

	name := flag.Arg(0)
	if name == "all" {
		for _, exp := range []string{"table1", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "table2", "table3", "lb", "fetchdepth", "sharedepth", "style"} {
			if err := run(os.Stdout, exp, opts, sc); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	} else if err := run(os.Stdout, name, opts, sc); err != nil {
		fatal(err)
	}

	if opts.Metrics != nil {
		snaps := opts.Metrics.Snapshots()
		warnDroppedSpans(os.Stderr, snaps, *traceCap)
		writeTails(os.Stderr, snaps)
		if *traceOut != "" {
			if err := writeChromeTrace(*traceOut, snaps); err != nil {
				fatal(err)
			}
			snaps = stripSpans(snaps)
		}
		if err := emitMetrics(os.Stdout, *metricsOut, snaps); err != nil {
			fatal(err)
		}
	}
}

// scale is what the -quick, -n, -iters and -workers flags asked for; a
// zero n or iters and a nil workers mean the flag was not set. The sweep
// experiments read them through Options. fig12 and table2 have scales of
// their own, and each set flag overrides only its own part of them.
type scale struct {
	quick    bool
	n, iters int
	workers  []int
}

// run executes one named experiment and writes its text rendering to w.
func run(w io.Writer, name string, opts experiments.Options, sc scale) error {
	var res *experiments.Result
	var err error
	switch name {
	case "table1":
		fmt.Fprint(w, experiments.RunTable1())
		return nil
	case "fig3":
		res, err = experiments.RunFig3(opts)
	case "fig9":
		res, err = experiments.RunFig9(opts)
	case "fig10":
		res, err = experiments.RunFig10(opts)
	case "fig11":
		res, err = experiments.RunFig11(opts)
	case "fig12":
		dopts := experiments.DefaultDiskOptions()
		dopts.Seed = opts.Seed
		if sc.quick {
			dopts.N, dopts.Steps, dopts.RadiusBoost = 8000, 40, 5000
		}
		if sc.n > 0 {
			dopts.N = sc.n
		}
		if sc.iters > 0 {
			dopts.Steps = sc.iters
		}
		if sc.workers != nil {
			dopts.Workers = slices.Max(sc.workers)
		}
		dres, err := experiments.RunFig12(dopts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, dres.Format())
		return nil
	case "fig13":
		fopts := opts
		if fopts.N > 20000 {
			fopts.N = 20000
		}
		res, err = experiments.RunFig13(fopts)
	case "table2":
		n, cpus, iters := 100000, []int{1, 2, 4, 8, 16}, max(1, opts.Iters-1)
		if sc.quick {
			n, cpus = 10000, []int{1, 4}
		}
		if sc.n > 0 {
			n = sc.n
		}
		if sc.iters > 0 {
			iters = sc.iters
		}
		if sc.workers != nil {
			cpus = sc.workers
		}
		rows, err := experiments.RunTable2(n, cpus, iters, opts.Seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTable2(rows))
		return nil
	case "table3":
		root, err := repoRoot()
		if err != nil {
			return err
		}
		out, err := experiments.RunTable3(root)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	case "lb":
		res, err = experiments.RunLBAblation(opts)
	case "fetchdepth":
		res, err = experiments.RunFetchDepthAblation(opts, []int{1, 2, 3, 5, 8})
	case "sharedepth":
		res, err = experiments.RunShareDepthAblation(opts, []int{0, 1, 2, 4})
	case "style":
		res, err = experiments.RunStyleComparison(opts)
	case "knn":
		res, err = experiments.RunKNN(opts)
	case "serve":
		res, err = experiments.RunServe(opts)
	case "incremental":
		res, err = experiments.RunIncremental(opts)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Format())
	return nil
}

// emitMetrics writes the collected snapshots as an indented JSON array to
// stdout (dest "-") or to the named file.
func emitMetrics(stdout io.Writer, dest string, snaps []*paratreet.MetricsSnapshot) error {
	w := stdout
	if dest != "-" && dest != "" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return writeMetricsJSON(w, snaps)
}

func writeMetricsJSON(w io.Writer, snaps []*paratreet.MetricsSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// writeChromeTrace exports the snapshots' spans as a Chrome Trace Event
// file for Perfetto / chrome://tracing / paratreet-trace.
func writeChromeTrace(dest string, snaps []*paratreet.MetricsSnapshot) error {
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, snaps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stripSpans shallow-copies the snapshots without their span lists, so
// the metrics JSON does not duplicate a trace already written by
// -trace-out (SpansDropped is kept for loss accounting).
func stripSpans(snaps []*paratreet.MetricsSnapshot) []*paratreet.MetricsSnapshot {
	out := make([]*paratreet.MetricsSnapshot, len(snaps))
	for i, s := range snaps {
		if s == nil {
			continue
		}
		cp := *s
		cp.Spans = nil
		out[i] = &cp
	}
	return out
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

// repoRoot finds the module root by walking up from the working directory
// to the first go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "", fmt.Errorf("go.mod not found above working directory")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paratreet-bench:", err)
	os.Exit(1)
}
