// Package analysis is paratreet-lint's analyzer framework: a pure-stdlib
// (go/ast, go/parser, go/types — no golang.org/x/tools dependency)
// reimplementation of the small slice of the x/tools analysis machinery the
// project needs to machine-check its concurrency and hot-path invariants.
//
// It keeps the invariants no test can see fail: per-visit loops must stay
// clock-, allocation- and lock-free (a slow visit still answers right),
// fields annotated as guarded must be read under their mutex (a race the
// tests' schedules may never hit), and quiescence detection must see every
// pending unit retired on every path (a leak shows only as a hang on a
// path the tests do not take). They are three analyzers (hotpath,
// lockcheck, pendingbalance) driven by source directives:
//
//	//paratreet:hotpath            function (and intra-package callees) is a
//	                               per-visit path: no time.Now, fmt.*, map
//	                               creation, closures, defer, go, or locks
//	//paratreet:coldpath           stops hotpath propagation (miss paths)
//	//paratreet:acquires-pending   function nets >= +1 pending unit on
//	                               every exit (send paths; the unit belongs
//	                               to the in-flight work it created)
//	//paratreet:retires            function nets exactly -1 pending unit
//	                               on every exit (pendingDone, deliver)
//	// guarded by <mu>             struct field only accessed under <mu>
//	//paratreet:allow(<analyzer>) <why>   per-line waiver, reason required
//
// Any other //paratreet: comment is itself a finding: a directive no
// analyzer reads does nothing, so a typo or a retired mark would pass
// silently. pendingbalance is interprocedural: it runs over a
// package-level call graph (callgraph.go) with a path-sensitive balance
// engine (dataflow.go), all still pure stdlib.
//
// Diagnostics are deterministic: sorted by file, line, column, analyzer,
// message, and deduplicated, so CI output and golden tests are stable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, with a resolved (not token.Pos) position so it
// can be serialized, sorted, and compared without a FileSet.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects a single type-checked package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the FileSet the package was parsed into.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checker results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the package's *types.Package.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a finding at pos unless a //paratreet:allow(<analyzer>)
// waiver covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns every registered analyzer, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		HotPathAnalyzer,
		LockCheckAnalyzer,
		PendingBalanceAnalyzer,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer to each package and returns the merged,
// position-sorted, deduplicated diagnostics.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	// Waiver hygiene validates against the full registry, not just the
	// analyzers selected for this run: a waiver naming an analyzer that
	// does not exist suppresses nothing and rots silently.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		// Framework hygiene: a //paratreet:allow(...) waiver with no reason
		// text defeats the point of auditable suppressions, and one naming
		// an unknown analyzer waives nothing — flag both.
		for _, w := range pkg.allows {
			switch {
			case w.reason == "":
				diags = append(diags, Diagnostic{
					Analyzer: "framework",
					File:     w.file,
					Line:     w.line,
					Col:      1,
					Message:  "//paratreet:allow waiver without a reason; state why the finding is safe to suppress",
				})
			case !known[w.analyzer]:
				diags = append(diags, Diagnostic{
					Analyzer: "framework",
					File:     w.file,
					Line:     w.line,
					Col:      1,
					Message:  fmt.Sprintf("//paratreet:allow names unknown analyzer %q; it suppresses nothing", w.analyzer),
				})
			}
		}
		// A directive no analyzer reads does nothing; flag it rather
		// than let a typo or a retired mark pass for a check.
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if word, ok := unknownDirective(c.Text); ok {
						pos := pkg.Fset.Position(c.Pos())
						diags = append(diags, Diagnostic{
							Analyzer: "framework",
							File:     pos.Filename,
							Line:     pos.Line,
							Col:      pos.Column,
							Message:  fmt.Sprintf("unknown directive //paratreet:%s; no analyzer reads it", word),
						})
					}
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	dedup := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup, nil
}
