package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Directive names. Directives are machine-readable comments in the style of
// //go:build — no space after the slashes, a fixed "paratreet:" prefix.
const (
	// DirHotPath marks a function as a per-visit hot path.
	DirHotPath = "hotpath"
	// DirColdPath stops hotpath propagation into a callee (miss paths,
	// error paths) — the callee may use clocks, closures, defer.
	DirColdPath = "coldpath"
	// DirAllow waives a finding: //paratreet:allow(<analyzer>) <reason>.
	// The reason is mandatory; a bare allow is itself a diagnostic.
	DirAllow = "allow"
	// DirAcquiresPending marks a function that nets at least one new
	// pending unit on every exit path, handing ownership to the in-flight
	// work it created (send paths). Callers see no balance effect.
	DirAcquiresPending = "acquires-pending"
	// DirRetires marks a function that consumes exactly one pending unit
	// on every exit path (pendingDone, deliver, Delayed.Cancel).
	DirRetires = "retires"
)

// hasDirective reports whether the comment group carries
// //paratreet:<name> (with optional trailing text).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := strings.CutPrefix(c.Text, "//paratreet:"); ok {
			text = strings.TrimSpace(text)
			if text == name || strings.HasPrefix(text, name+" ") {
				return true
			}
		}
	}
	return false
}

// funcDirective reports whether a function declaration is marked with
// //paratreet:<name> in its doc comment.
func funcDirective(fd *ast.FuncDecl, name string) bool {
	return hasDirective(fd.Doc, name)
}

var allowRe = regexp.MustCompile(`^//paratreet:allow\((\w+)\)\s*(.*)$`)

// unknownDirective reports a //paratreet: comment that is neither one of
// the marks above nor a well-formed allow(<analyzer>) waiver, and its
// first word.
func unknownDirective(text string) (word string, unknown bool) {
	rest, ok := strings.CutPrefix(text, "//paratreet:")
	if !ok || allowRe.MatchString(text) {
		return "", false
	}
	word, _, _ = strings.Cut(rest, " ")
	switch word {
	case DirHotPath, DirColdPath, DirAcquiresPending, DirRetires:
		return "", false
	}
	return word, true
}

// allowEntry is one //paratreet:allow(<analyzer>) waiver comment. The
// framework's hygiene checks validate every entry (reason present,
// analyzer known); only well-formed entries suppress findings.
type allowEntry struct {
	analyzer string
	file     string
	line     int
	reason   string
}

// collectAllows scans all comments for //paratreet:allow(<analyzer>)
// waivers. A trailing "// want" clause (golden-test expectations share
// the comment line in testdata) is not part of the reason.
func collectAllows(fset *token.FileSet, files []*ast.File) []allowEntry {
	var out []allowEntry
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				reason := m[2]
				if i := strings.Index(reason, "// want"); i >= 0 {
					reason = reason[:i]
				}
				out = append(out, allowEntry{
					analyzer: m[1],
					file:     pos.Filename,
					line:     pos.Line,
					reason:   strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// buildAllowLines indexes the well-formed waivers for suppression:
// analyzer -> filename -> lines. Reasonless waivers are inert — they are
// the framework's own diagnostic, not a suppression.
func buildAllowLines(entries []allowEntry) map[string]map[string][]int {
	out := make(map[string]map[string][]int)
	for _, e := range entries {
		if e.reason == "" {
			continue
		}
		byFile := out[e.analyzer]
		if byFile == nil {
			byFile = make(map[string][]int)
			out[e.analyzer] = byFile
		}
		byFile[e.file] = append(byFile[e.file], e.line)
	}
	return out
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardedBy extracts the mutex name from a struct field's doc or trailing
// comment ("// guarded by mu"). Returns "" when unannotated.
func guardedBy(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// rootIdentObj resolves the leftmost identifier of a selector/index/deref
// chain to its object — the "same receiver" notion lockcheck uses to match
// a field access with a mutex acquisition. Returns nil when the chain does
// not bottom out in a plain identifier (e.g. a call result).
func rootIdentObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
