// Command benchpair runs the repository's benchmark on a parent commit and
// on the working tree, alternating the two, and records every run in
// BENCH_<pr>.json at the repository root: the trajectory of the
// benchmark's numbers, one file per change. Run it from the repository
// root:
//
//	go run ./scripts/benchpair -pr 37 -pairs 10 -seeds 1,3 -workloads gravity_plummer
//	go run ./scripts/benchpair -trajectory
//
// The parent, HEAD when the working tree has changes and HEAD~1 when it
// has none, is checked out as a detached git worktree under .bench_build/,
// where benchmark/run.sh keeps everything it writes, and removed again at
// the end. Each pair runs `bash benchmark/run.sh -workload W -seed S` once
// in each checkout, at the benchmark's own run length and untraced; even
// pairs run the parent first and odd pairs the change first, so a host
// that drifts during a session favours neither side.
//
// The file holds both commits, the host stamp (CPUs, Go version, the
// gravity kernel bodies), every run's stamp (which carries its seconds)
// and final JSON line tagged with workload, seed, pair, order and side,
// and per workload, seed and
// end-to-end metric of BENCHMARK.json: both sides' medians and the number
// of pairs that favour the change. It is rewritten after every pair, so
// an interrupted session keeps the pairs it finished; a later run of the
// same -pr and parent adds its pairs to them (another seed, another
// workload, more pairs). The command exits nonzero when any recorded run
// reports failed operations or "correct": false (after writing the file).
//
// -trajectory prints, per workload and metric, the change-side median of
// every BENCH_*.json in change order, with the parent-side median beside
// it, so host drift between sessions shows as both sides moving together.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"paratreet/internal/gravity"
)

// worktree is where the parent is checked out, relative to the root.
const worktree = ".bench_build/benchpair-parent"

var allWorkloads = []string{"gravity_plummer", "knn_cosmo", "rebuild_drift", "serve_mixed"}

func main() {
	var (
		pr         = flag.Int("pr", 0, "number of the change: the output is BENCH_<pr>.json")
		pairs      = flag.Int("pairs", 5, "pairs of runs per workload and seed")
		seeds      = flag.String("seeds", "1", "comma-separated benchmark seeds")
		workloads  = flag.String("workloads", strings.Join(allWorkloads, ","), "comma-separated workloads")
		trajectory = flag.Bool("trajectory", false, "print the change-side median of every BENCH_*.json and exit")
	)
	flag.Parse()
	var err error
	if *trajectory {
		err = printTrajectory(os.Stdout, ".")
	} else {
		err = record(*pr, *pairs, *seeds, *workloads)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// parseSettings checks the flags of a recording run.
func parseSettings(pr, pairs int, seeds, workloads string) (settings, error) {
	set := settings{Pairs: pairs}
	if pr <= 0 {
		return set, errors.New("-pr must name the change (a positive number)")
	}
	if pairs <= 0 {
		return set, errors.New("-pairs must be positive")
	}
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return set, fmt.Errorf("-seeds: %v", err)
		}
		set.Seeds = append(set.Seeds, seed)
	}
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		if !slices.Contains(allWorkloads, w) {
			return set, fmt.Errorf("-workloads: unknown workload %q (have %s)", w, strings.Join(allWorkloads, ", "))
		}
		set.Workloads = append(set.Workloads, w)
	}
	return set, nil
}

// File is the layout of BENCH_<pr>.json.
type File struct {
	PR      int       `json:"pr"`
	Parent  Commit    `json:"parent"`
	Change  Commit    `json:"change"`
	Host    Host      `json:"host"`
	Runs    []Run     `json:"runs"`
	Summary []Summary `json:"summary"`
}

// Commit names one side. A change with uncommitted edits carries the
// commit it sits on and "dirty": true.
type Commit struct {
	Commit  string `json:"commit"`
	Subject string `json:"subject,omitempty"`
	Dirty   bool   `json:"dirty,omitempty"`
}

// Host is where the runs ran.
type Host struct {
	NumCPU  int    `json:"nproc"`
	Go      string `json:"go"`
	OS      string `json:"goos"`
	Arch    string `json:"goarch"`
	Kernels string `json:"gravity_kernels"`
}

// settings are a recording run's flags.
type settings struct {
	Pairs     int
	Seeds     []int64
	Workloads []string
}

// Run is one benchmark run: Order is its place in its pair (0 first, 1
// second), Stamp the run's stamp line and Result its final JSON line,
// both as the benchmark printed them.
type Run struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Pair     int             `json:"pair"`
	Order    int             `json:"order"`
	Side     string          `json:"side"`
	Stamp    json.RawMessage `json:"stamp"`
	Result   json.RawMessage `json:"result"`
}

// Summary is one end-to-end metric of one workload and seed.
type Summary struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Metric         string  `json:"metric"`
	Unit           string  `json:"unit"`
	Better         string  `json:"better"`
	ParentMedian   float64 `json:"parent_median"`
	ChangeMedian   float64 `json:"change_median"`
	ChangeShare    float64 `json:"change_share"` // change/parent - 1
	PairsForChange int     `json:"pairs_favouring_change"`
	Pairs          int     `json:"pairs"`
}

// result is the part of a final JSON line the command reads.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricDef is an end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// record runs the pairs and writes BENCH_<pr>.json after each one. An
// existing file of the same parent gains the new pairs, numbered after
// its own, so a change can add seeds or workloads to its record.
func record(pr, pairs int, seeds, workloads string) error {
	set, err := parseSettings(pr, pairs, seeds, workloads)
	if err != nil {
		return err
	}
	defs, err := endToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_%d.json", pr)
	f := File{PR: pr}
	if b, err := os.ReadFile(name); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Host = Host{NumCPU: runtime.NumCPU(), OS: runtime.GOOS, Arch: runtime.GOARCH, Kernels: gravity.Kernels()}
	if f.Host.Go, err = output("go", "env", "GOVERSION"); err != nil {
		return err
	}
	if f.Change, err = changeCommit(); err != nil {
		return err
	}
	rev := "HEAD"
	if !f.Change.Dirty {
		rev = "HEAD~1"
	}
	parent, err := git("rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return err
	}
	if len(f.Runs) > 0 && f.Parent.Commit != parent {
		return fmt.Errorf("%s records parent %s; remove it to record %s", name, f.Parent.Commit, parent)
	}
	f.Parent.Commit = parent
	f.Parent.Subject, _ = git("log", "-1", "--format=%s", parent)
	removeWorktree()
	if _, err := git("worktree", "add", "--detach", worktree, parent); err != nil {
		return err
	}
	defer removeWorktree()

	dirs := map[string]string{"parent": worktree, "change": "."}
	for _, w := range set.Workloads {
		for _, seed := range set.Seeds {
			first := 0
			for _, r := range f.Runs {
				if r.Workload == w && r.Seed == seed {
					first = max(first, r.Pair+1)
				}
			}
			for pair := first; pair < first+set.Pairs; pair++ {
				sides := []string{"parent", "change"}
				if pair%2 == 1 {
					sides[0], sides[1] = sides[1], sides[0]
				}
				for order, side := range sides {
					run, res, err := runOnce(dirs[side], w, seed)
					if err != nil {
						return fmt.Errorf("%s, %s seed %d pair %d: %w", side, w, seed, pair, err)
					}
					run.Pair, run.Order, run.Side = pair, order, side
					f.Runs = append(f.Runs, run)
					fmt.Fprintf(os.Stderr, "%s seed %d pair %d %-6s step_ms_p50 %.2f failed %d correct %v\n",
						w, seed, pair, side, res.Metrics["step_ms_p50"].Value, res.Failed, res.Correct)
				}
				if err := write(name, &f, defs); err != nil {
					return err
				}
			}
		}
	}
	bad := 0
	for _, r := range f.Runs {
		var res result
		if err := json.Unmarshal(r.Result, &res); err != nil {
			return err
		}
		if res.Failed > 0 || !res.Correct {
			bad++
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", name)
	if bad > 0 {
		return fmt.Errorf("%d runs in %s report failed operations or correct: false", bad, name)
	}
	return nil
}

// write summarizes f's runs and writes it to name.
func write(name string, f *File, defs []metricDef) error {
	var err error
	if f.Summary, err = summarize(f.Runs, defs); err != nil {
		return err
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(out, '\n'), 0o644)
}

// runOnce runs the benchmark once in dir and returns its stamp and final
// line. A run that exits nonzero but prints its final line is returned
// (its failures are in the line).
func runOnce(dir, workload string, seed int64) (Run, result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	run := Run{Workload: workload, Seed: seed}
	var res result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "stamp "); ok && json.Valid([]byte(s)) {
			run.Stamp = json.RawMessage(s)
		}
		if strings.HasPrefix(line, "{") && json.Valid([]byte(line)) {
			run.Result = json.RawMessage(line)
		}
	}
	if run.Result == nil {
		if runErr == nil {
			runErr = errors.New("no final JSON line")
		}
		return run, res, runErr
	}
	err := json.Unmarshal(run.Result, &res)
	return run, res, err
}

// summarize computes, per workload, seed and end-to-end metric, both
// sides' medians and the pairs that favour the change.
func summarize(runs []Run, defs []metricDef) ([]Summary, error) {
	type key struct {
		workload string
		seed     int64
	}
	type pairValues [2]map[string]float64 // parent, change
	groups := map[key]map[int]*pairValues{}
	var keys []key
	for _, r := range runs {
		var res result
		if err := json.Unmarshal(r.Result, &res); err != nil {
			return nil, err
		}
		k := key{r.Workload, r.Seed}
		if groups[k] == nil {
			groups[k] = map[int]*pairValues{}
			keys = append(keys, k)
		}
		pv := groups[k][r.Pair]
		if pv == nil {
			pv = &pairValues{}
			groups[k][r.Pair] = pv
		}
		side := 0
		if r.Side == "change" {
			side = 1
		}
		pv[side] = map[string]float64{}
		for name, m := range res.Metrics {
			pv[side][name] = m.Value
		}
	}
	var out []Summary
	for _, k := range keys {
		for _, d := range defs {
			s := Summary{Workload: k.workload, Seed: k.seed, Metric: d.Name, Unit: d.Unit, Better: d.Better}
			var parent, change []float64
			for _, pv := range groups[k] {
				p, okP := pv[0][d.Name]
				c, okC := pv[1][d.Name]
				if !okP || !okC {
					continue
				}
				parent, change = append(parent, p), append(change, c)
				s.Pairs++
				if (d.Better == "lower" && c < p) || (d.Better == "higher" && c > p) {
					s.PairsForChange++
				}
			}
			if s.Pairs == 0 {
				continue
			}
			s.ParentMedian, s.ChangeMedian = median(parent), median(change)
			if s.ParentMedian != 0 {
				s.ChangeShare = s.ChangeMedian/s.ParentMedian - 1
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// median returns the median of xs, the mean of the middle two for an
// even count.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd reads the end-to-end metrics of the benchmark's declaration.
func endToEnd(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// changeCommit names the working tree: HEAD, dirty when anything but a
// BENCH_*.json differs from it.
func changeCommit() (Commit, error) {
	var c Commit
	var err error
	if c.Commit, err = git("rev-parse", "HEAD"); err != nil {
		return c, err
	}
	c.Subject, _ = git("log", "-1", "--format=%s", "HEAD")
	status, err := git("status", "--porcelain")
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(status, "\n") {
		if len(line) > 3 && !benchFile.MatchString(filepath.Base(strings.TrimSpace(line[3:]))) {
			c.Dirty = true
		}
	}
	if c.Dirty {
		c.Subject = ""
	}
	return c, nil
}

// removeWorktree removes the parent's checkout, if any.
func removeWorktree() {
	git("worktree", "remove", "--force", worktree)
	git("worktree", "prune")
}

func git(args ...string) (string, error) {
	return output("git", args...)
}

// output runs a command and returns its trimmed standard output.
func output(name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// printTrajectory prints, per workload, seed and metric, the change-side
// median (parent-side in brackets) of every BENCH_*.json in dir, in the
// order of their numbers.
func printTrajectory(w io.Writer, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type bench struct {
		pr   int
		file File
	}
	var benches []bench
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		var f File
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		pr, _ := strconv.Atoi(m[1])
		benches = append(benches, bench{pr, f})
	}
	if len(benches) == 0 {
		return errors.New("no BENCH_*.json files")
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].pr < benches[j].pr })
	type row struct {
		workload, metric, unit string
		seed                   int64
	}
	var rows []row
	cells := map[row]map[int]Summary{}
	for _, b := range benches {
		for _, s := range b.file.Summary {
			r := row{s.Workload, s.Metric, s.Unit, s.Seed}
			if cells[r] == nil {
				cells[r] = map[int]Summary{}
				rows = append(rows, r)
			}
			cells[r][b.pr] = s
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return a.metric < b.metric
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-40s", "workload/seed/metric (change [parent])")
	for _, b := range benches {
		fmt.Fprintf(bw, " %24s", fmt.Sprintf("BENCH_%d", b.pr))
	}
	fmt.Fprintln(bw)
	for _, r := range rows {
		fmt.Fprintf(bw, "%-40s", fmt.Sprintf("%s/%d/%s (%s)", r.workload, r.seed, r.metric, r.unit))
		for _, b := range benches {
			s, ok := cells[r][b.pr]
			if !ok {
				fmt.Fprintf(bw, " %24s", "-")
				continue
			}
			fmt.Fprintf(bw, " %24s", fmt.Sprintf("%.4g [%.4g]", s.ChangeMedian, s.ParentMedian))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
