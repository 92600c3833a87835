package benchfmt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func fixtureSnapshot() *Snapshot {
	return &Snapshot{
		GitSHA:   "0123456789abcdef0123456789abcdef01234567",
		Workload: "bench-gate-quick",
		GoOS:     "linux",
		GoArch:   "amd64",
		NumCPU:   8,
		Results: []Result{
			// Deliberately out of order: Write must sort by name.
			{Name: "treebuild/oct/w=4", N: 12, NsPerOp: 1.25e6, AllocsPerOp: 310, BytesPerOp: 524288},
			{Name: "gravity/iter", N: 3, NsPerOp: 4.5e7, AllocsPerOp: 1200, BytesPerOp: 2097152,
				BuildNsPerOp: 6.0e6, TraverseNsPerOp: 3.2e7},
			{Name: "knn/leaf-kernel", N: 100000, NsPerOp: 850.5, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "serve/query", N: 5, NsPerOp: 2.1e7, AllocsPerOp: 900, BytesPerOp: 1048576,
				P50Ns: 1.4e5, P99Ns: 9.8e5},
		},
	}
}

// TestWriteGolden locks the BENCH_*.json schema at the byte level —
// field names, field order, indentation, result ordering — so the CI
// comparator and committed baselines cannot drift silently.
func TestWriteGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bench_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot format drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteByteStable checks determinism directly: two writes of the
// same snapshot are identical, and input result order does not matter.
func TestWriteByteStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	shuffled := fixtureSnapshot()
	shuffled.Results[0], shuffled.Results[2] = shuffled.Results[2], shuffled.Results[0]
	if err := Write(&b, shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same snapshot produced different bytes")
	}
}

func TestReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	src := fixtureSnapshot()
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.GitSHA != src.GitSHA || got.Workload != src.Workload {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Results) != len(src.Results) {
		t.Fatalf("result count %d != %d", len(got.Results), len(src.Results))
	}
	// Results come back sorted by name.
	for i := 1; i < len(got.Results); i++ {
		if got.Results[i-1].Name > got.Results[i].Name {
			t.Fatal("results not sorted after round trip")
		}
	}
	if _, err := Read(strings.NewReader(`{"schema": 999}`)); err == nil {
		t.Fatal("future schema accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompare(t *testing.T) {
	base := &Snapshot{Results: []Result{
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "b", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "gone", NsPerOp: 500},
	}}
	cur := &Snapshot{Results: []Result{
		{Name: "a", NsPerOp: 1100, AllocsPerOp: 10}, // +10%: inside 15% tolerance
		{Name: "b", NsPerOp: 1300, AllocsPerOp: 2},  // +30% and new allocs
		{Name: "new", NsPerOp: 99999},               // no baseline: not a finding
	}}
	regs := Compare(base, cur, 0.15)
	var got []string
	for _, r := range regs {
		got = append(got, r.Name+":"+r.Metric)
	}
	want := []string{"b:allocs/op", "b:ns/op", "gone:missing"}
	if len(got) != len(want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("findings %v, want %v", got, want)
		}
	}
	if regs[1].Ratio < 1.29 || regs[1].Ratio > 1.31 {
		t.Fatalf("b ns/op ratio %v, want ~1.3", regs[1].Ratio)
	}

	// Snapshots from unlike machines: the time finding is advisory, the
	// allocation and missing-benchmark findings still gate.
	cur.NumCPU = base.NumCPU + 1
	for _, r := range Compare(base, cur, 0.15) {
		if r.Advisory != (r.Metric == "ns/op") {
			t.Fatalf("unlike machines: %v advisory=%v", r, r.Advisory)
		}
	}
	cur.NumCPU = base.NumCPU

	if regs := Compare(base, &Snapshot{Results: []Result{
		{Name: "a", NsPerOp: 900, AllocsPerOp: 0},
		{Name: "b", NsPerOp: 1000},
		{Name: "gone", NsPerOp: 575}, // +15% exactly: not beyond tolerance
	}}, 0.15); len(regs) != 0 {
		t.Fatalf("unexpected findings: %v", regs)
	}
}
