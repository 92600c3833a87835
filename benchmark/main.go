// Command benchmark is the repository's benchmark: four workloads run
// against the public API (paratreet.NewSimulation/Run/BuildOnly,
// serve.NewEngine/NewServer/Refresh), every metric printed by name with
// its unit, the answers checked, and — with -trace 1 — each step and
// request attributed to the repo's layers from outside the program.
//
//	bash benchmark/run.sh -workload gravity_plummer -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	quick    bool
}

// phaseCount is the attempted/failed tally of one phase of a workload.
type phaseCount struct {
	name      string
	attempted int
	failed    int
}

// result is what one workload run produces.
type result struct {
	workload string
	// values holds end-to-end metrics (untraced run) or per-layer metrics
	// (traced run) by name.
	values map[string]float64
	phases []phaseCount
	// notes are human-readable lines: sample counts, achieved rates.
	notes []string
	spans *spanLog
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds one phase's tally.
func (r *result) count(name string, attempted, failed int) {
	r.phases = append(r.phases, phaseCount{name, attempted, failed})
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted, failed
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of a run's standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// workloadFn runs one workload; it returns an error only when the harness
// itself cannot continue (failed operations are counted, not returned).
type workloadFn func(o options, r *result) error

var workloads = map[string]workloadFn{
	wGravity: runGravity,
	wKNN:     runKNN,
	wRebuild: runRebuild,
	wServe:   runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, in that order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated particles, queries and arrival schedule")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds to measure per workload")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/spans-<workload>.json under the working directory)")
	fs.BoolVar(&o.quick, "quick", false, "N/10 scale smoke run; its numbers are never compared")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if !(o.seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	names := workloadNames
	if o.workload != "" {
		if workloads[o.workload] == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	printStamp(stdout, o)
	code := 0
	for _, name := range names {
		o.workload = name
		r := newResult(name)
		if err := workloads[name](o, r); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if r.spans != nil {
			path := o.traceOut
			if path == "" {
				path = filepath.Join(".bench_build", "spans-"+name+".json")
			}
			if err := r.spans.write(path); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: writing spans: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.spans.spans), path)
		}
		ok, err := report(stdout, o, r)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// printStamp records what the numbers were measured on. Link simulation is
// always off: every workload sets Latency, PerByte and Faults to zero, so
// no number contains a simulated-link sleep.
func printStamp(w io.Writer, o options) {
	stamp := map[string]any{
		"commit":          commitID(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"num_cpu":         runtime.NumCPU(),
		"go_version":      runtime.Version(),
		"link_simulation": "off",
		"quick":           o.quick,
		"seed":            o.seed,
		"seconds":         o.seconds,
		"trace":           o.trace,
		"claim":           nil,
	}
	b, err := json.Marshal(stamp)
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	fmt.Fprintf(w, "stamp %s\n", b)
}

// commitID reads the checked-out commit from .git without running git; the
// driver's checkouts are not repositories, so "unknown" is the usual value
// there.
func commitID() string {
	for _, dir := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			b, err := os.ReadFile(filepath.Join(dir, ".git", name))
			if err != nil {
				return "unknown"
			}
			return strings.TrimSpace(string(b))
		}
		return ref
	}
	return "unknown"
}

// report prints the run's metrics table, tallies and notes, then the
// result line. It reports whether the run was correct.
func report(w io.Writer, o options, r *result) (bool, error) {
	defs, kind := endToEndDefs, "end-to-end"
	if o.trace {
		defs, kind = perLayerDefs, "per-layer"
	}
	out := resultJSON{Metrics: map[string]metricJSON{}}
	fmt.Fprintf(w, "workload %s: %s metrics\n", r.workload, kind)
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !o.trace {
			return false, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !o.trace && v <= 0 {
			return false, fmt.Errorf("end-to-end metric %s is %v; it must be positive", d.Name, v)
		}
		fmt.Fprintf(w, "  %-38s %16.6f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	for name := range r.values {
		if _, ok := out.Metrics[name]; !ok {
			return false, fmt.Errorf("metric %s is not in the %s catalog", name, kind)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.phases {
		fmt.Fprintf(w, "  phase %-12s attempted %8d failed %6d\n", p.name, p.attempted, p.failed)
	}
	out.Attempted, out.Failed = r.totals()
	out.Correct = out.Failed == 0 && out.Attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return out.Correct, nil
}
