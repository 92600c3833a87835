package analysis_test

import (
	"os"
	"testing"

	"paratreet/internal/analysis"
	"paratreet/internal/analysis/analysistest"
)

// TestGolden runs every registered analyzer over its golden testdata
// package. The registry and the testdata layout must agree: an analyzer
// without testdata/<name> fails here, so adding an analyzer without
// golden coverage is impossible.
func TestGolden(t *testing.T) {
	for _, a := range analysis.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			if _, err := os.Stat("testdata/" + a.Name); err != nil {
				t.Fatalf("analyzer %q has no golden testdata: %v", a.Name, err)
			}
			analysistest.Run(t, a, "testdata/"+a.Name)
		})
	}
}

// TestWaiverHygiene covers the framework-side directive rules (reasonless
// waivers, unknown analyzer names, directives no analyzer reads) with
// their own golden package. The hygiene diagnostics come from
// analysis.Run itself, so any analyzer serves; lockcheck provides the
// finding a reasonless waiver fails to suppress.
func TestWaiverHygiene(t *testing.T) {
	analysistest.Run(t, analysis.LockCheckAnalyzer, "testdata/framework")
}

func TestAnalyzerRegistry(t *testing.T) {
	all := analysis.Analyzers()
	if len(all) == 0 {
		t.Fatal("empty analyzer registry")
	}

	// Every testdata directory except framework/ (the waiver-hygiene
	// package) must belong to a registered analyzer — the inverse of
	// TestGolden's check, so orphaned golden packages can't rot silently.
	names := make(map[string]bool, len(all))
	for _, a := range all {
		names[a.Name] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "framework" {
			continue
		}
		if !names[e.Name()] {
			t.Errorf("testdata/%s does not match any registered analyzer", e.Name())
		}
	}

	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("analyzers not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, a := range all {
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if analysis.ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if analysis.ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown analyzers")
	}
}
