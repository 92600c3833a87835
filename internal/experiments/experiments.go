// Package experiments regenerates every table and figure of the paper's
// evaluation (§III, §IV) at laptop scale: each Run* function executes the
// corresponding experiment on the simulated machine and returns rows whose
// *shape* — who wins, by what factor, where scaling breaks — mirrors the
// published result. Every simulation an experiment runs goes through one
// measured run (measure), so Options.Metrics and Options.Faults reach all
// of them. The cmd/paratreet-bench binary is a thin wrapper around this
// package.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"paratreet"
)

// Options scales an experiment.
type Options struct {
	// N is the particle (fig12: body) count.
	N int
	// Iters is the number of measured iterations (after the warm-up);
	// fig12's integration steps.
	Iters int
	// Workers sweeps total worker (core) counts; single-cell experiments
	// run at the largest.
	Workers []int
	// WorkersPerProc fixes the process granularity (the paper uses 24-48
	// cores per process; scaled down here).
	WorkersPerProc int
	// Seed makes datasets reproducible.
	Seed int64
	// Metrics, when non-nil, attaches a fresh observability registry to
	// every simulation the experiment runs and collects one labeled
	// snapshot per run (e.g. "fig3/WaitFree/w4"). Nil disables collection.
	Metrics *MetricsCollector
	// Faults, when non-nil, injects deterministic delivery faults (drops,
	// duplicates, jitter, pauses) into every simulation the experiment
	// runs; results must not change, only timings and retry counters.
	Faults *paratreet.FaultConfig

	// quick marks the smoke-test scale (Quick), for the one experiment
	// whose physics differs with it: fig12's radius boost.
	quick bool
}

// Quick returns a fast smoke-test scale.
func Quick() Options {
	return Options{N: 6000, Iters: 2, Workers: []int{1, 4}, WorkersPerProc: 2, Seed: 42, quick: true}
}

func (o Options) procsFor(workers int) (procs, wpp int) {
	wpp = o.WorkersPerProc
	if wpp <= 0 {
		wpp = 2
	}
	if workers < wpp {
		return 1, workers
	}
	return workers / wpp, wpp
}

// largest is the sweep's largest worker count, where single-cell
// experiments run.
func (o Options) largest() int { return slices.Max(o.Workers) }

// Names lists every experiment; `paratreet-bench all` runs the ones
// before knn, in order.
var Names = []string{
	"table1", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "table2", "table3",
	"lb", "fetchdepth", "sharedepth", "style", "knn", "serve", "incremental",
}

// All lists the experiments `paratreet-bench all` runs, in order.
func All() []string { return Names[:slices.Index(Names, "knn")] }

// Scale returns experiment name's default options: the standard
// laptop-scale sweep, or Quick's when quick is set, with the experiment's
// own scale where it has one.
func Scale(name string, quick bool) Options {
	o := Options{N: 40000, Iters: 3, Workers: []int{1, 2, 4, 8}, WorkersPerProc: 2, Seed: 42}
	if quick {
		o = Quick()
	}
	switch {
	case name == "fig12" && quick:
		o.N, o.Iters, o.Workers = 8000, 40, []int{4}
	case name == "fig12":
		o.N, o.Iters, o.Workers = 20000, 60, []int{4}
	case name == "fig13" && !quick:
		o.N = 20000
	case name == "table2" && quick:
		o.N, o.Iters, o.Workers = 10000, 1, []int{1, 4}
	case name == "table2":
		o.N, o.Iters, o.Workers = 100000, 2, []int{1, 2, 4, 8, 16}
	}
	return o
}

// runners runs each experiment and renders its result as text.
var runners = map[string]func(o Options) (string, error){
	"table1":      func(Options) (string, error) { return RunTable1(), nil },
	"fig3":        func(o Options) (string, error) { return text(RunFig3(o)) },
	"fig9":        func(o Options) (string, error) { return text(RunFig9(o)) },
	"fig10":       func(o Options) (string, error) { return text(RunFig10(o)) },
	"fig11":       func(o Options) (string, error) { return text(RunFig11(o)) },
	"fig12":       func(o Options) (string, error) { return text(RunFig12(o)) },
	"fig13":       func(o Options) (string, error) { return text(RunFig13(o)) },
	"table2":      func(o Options) (string, error) { return text(RunTable2(o)) },
	"table3":      func(Options) (string, error) { return RunTable3("") },
	"lb":          func(o Options) (string, error) { return text(RunLBAblation(o)) },
	"fetchdepth":  func(o Options) (string, error) { return text(RunFetchDepthAblation(o, []int{1, 2, 3, 5, 8})) },
	"sharedepth":  func(o Options) (string, error) { return text(RunShareDepthAblation(o, []int{0, 1, 2, 4})) },
	"style":       func(o Options) (string, error) { return text(RunStyleComparison(o)) },
	"knn":         func(o Options) (string, error) { return text(RunKNN(o)) },
	"serve":       func(o Options) (string, error) { return text(RunServe(o)) },
	"incremental": func(o Options) (string, error) { return text(RunIncremental(o)) },
}

// Run executes experiment name at opts and returns its text rendering.
func Run(name string, opts Options) (string, error) {
	run, ok := runners[name]
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", name)
	}
	return run(opts)
}

// text renders a runner's result.
func text[R interface{ Format() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Format(), nil
}

// Row is one (x, series…) measurement of a sweep.
type Row struct {
	X      int
	Values map[string]float64
}

// Result is a labelled set of rows plus free-form notes.
type Result struct {
	Title   string
	XLabel  string
	Series  []string
	Rows    []Row
	Notes   []string
	Elapsed time.Duration
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", r.Title)
	fmt.Fprintf(&b, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %16s", s)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d", row.X)
		for _, s := range r.Series {
			v, ok := row.Values[s]
			if !ok {
				fmt.Fprintf(&b, " %16s", "-")
				continue
			}
			fmt.Fprintf(&b, " %16.6g", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "elapsed: %v\n", r.Elapsed.Round(time.Millisecond))
	return b.String()
}
