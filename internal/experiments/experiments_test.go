package experiments

import (
	"strings"
	"testing"

	"paratreet"
)

func tinyOpts() Options {
	return Options{N: 2500, Iters: 1, Workers: []int{1, 2}, WorkersPerProc: 2, Seed: 7}
}

func checkResult(t *testing.T, res *Result, wantRows int) {
	t.Helper()
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}
	for _, row := range res.Rows {
		for _, s := range res.Series {
			v, ok := row.Values[s]
			if !ok {
				t.Fatalf("row %d missing series %q", row.X, s)
			}
			if v < 0 {
				t.Fatalf("row %d series %q negative: %v", row.X, s, v)
			}
		}
	}
	out := res.Format()
	if !strings.Contains(out, res.Title) {
		t.Error("Format missing title")
	}
	for _, s := range res.Series {
		if !strings.Contains(out, s) {
			t.Errorf("Format missing series %q", s)
		}
	}
}

func TestOptionsProcsFor(t *testing.T) {
	o := Options{WorkersPerProc: 4}
	if p, w := o.procsFor(8); p != 2 || w != 4 {
		t.Errorf("procsFor(8) = %d,%d", p, w)
	}
	if p, w := o.procsFor(2); p != 1 || w != 2 {
		t.Errorf("procsFor(2) = %d,%d", p, w)
	}
	var zero Options
	if p, w := zero.procsFor(4); p != 2 || w != 2 {
		t.Errorf("zero procsFor(4) = %d,%d", p, w)
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 2)
}

func TestRunFig9(t *testing.T) {
	res, err := RunFig9(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != int(paratreet.NumPhases) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Percentages should sum to ~100.
	var total float64
	for _, row := range res.Rows {
		total += row.Values["percent"]
	}
	if total < 99 || total > 101 {
		t.Errorf("phase percentages sum to %v", total)
	}
	// Local traversal should dominate, per the paper.
	lt := res.Rows[int(paratreet.PhaseLocalTraversal)].Values["percent"]
	if lt < 20 {
		t.Errorf("local traversal only %.1f%% of time", lt)
	}
}

func TestRunFig10ShapeParaTreeTWins(t *testing.T) {
	opts := tinyOpts()
	opts.N = 8000
	opts.Iters = 2
	opts.Workers = []int{4} // two procs: remote mechanisms in play
	res, err := RunFig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 1)
	// The headline relation where the distributed mechanisms matter:
	// ParaTreeT beats the ChaNGa profile (20% margin absorbs single-core
	// measurement noise at this tiny scale).
	row := res.Rows[0]
	if row.Values["ParaTreeT"] >= row.Values["ChaNGa"]*1.2 {
		t.Errorf("workers=%d: ParaTreeT %.4f not faster than ChaNGa %.4f",
			row.X, row.Values["ParaTreeT"], row.Values["ChaNGa"])
	}
}

func TestRunFig11(t *testing.T) {
	res, err := RunFig11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 2)
}

func TestRunFig12(t *testing.T) {
	res, err := RunFig12(Options{N: 2500, Iters: 6, Workers: []int{2}, WorkersPerProc: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RadialBins) == 0 {
		t.Fatal("no bins")
	}
	out := res.Format()
	if !strings.Contains(out, "2:1 resonance") {
		t.Error("resonance markers missing")
	}
	// Resonance radii match the paper's values.
	if r := res.Resonances["2:1"]; r < 3.26 || r > 3.29 {
		t.Errorf("2:1 resonance at %v", r)
	}
}

func TestRunFig13(t *testing.T) {
	opts := tinyOpts()
	res, err := RunFig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 2)
}

func TestRunTable1(t *testing.T) {
	out := RunTable1()
	for _, want := range []string{"Summit", "Stampede2", "Bridges2", "simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestRunTable2(t *testing.T) {
	rows, err := RunTable2(Options{N: 4000, Iters: 1, Workers: []int{1, 2}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Transposed (ParaTreeT) must do fewer L1 loads than per-bucket.
		if r.Trace[0].L1.Loads >= r.Trace[1].L1.Loads {
			t.Errorf("cpu=%d: transposed loads %d >= per-bucket %d",
				r.CPU, r.Trace[0].L1.Loads, r.Trace[1].L1.Loads)
		}
		if r.Runtime[0] <= 0 || r.Runtime[1] <= 0 {
			t.Error("runtimes not measured")
		}
	}
	out := rows.Format()
	if !strings.Contains(out, "Table II") {
		t.Error("format missing header")
	}
}

func TestRunTable3(t *testing.T) {
	out, err := RunTable3("../..")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "main.go") || !strings.Contains(out, "code lines") {
		t.Errorf("Table III output:\n%s", out)
	}
}

func TestRunLBAblation(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = []int{4}
	res, err := RunLBAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 1)
}

func TestRunFetchDepthAblation(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = []int{4} // two procs, so remote fetches happen
	opts.N = 12000          // deep enough trees that fetch depth matters
	res, err := RunFetchDepthAblation(opts, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 2)
	// Shallow fetches require more requests.
	if res.Rows[0].Values["requests"] <= res.Rows[1].Values["requests"] {
		t.Errorf("depth=1 requests %.0f not greater than depth=4 %.0f",
			res.Rows[0].Values["requests"], res.Rows[1].Values["requests"])
	}
}

func TestRunStyleComparison(t *testing.T) {
	res, err := RunStyleComparison(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, 2)
}
