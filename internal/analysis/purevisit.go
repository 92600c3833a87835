package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PureVisitAnalyzer enforces the Visitor purity contract the traversal
// engine's correctness rests on (the framework/user-code division FDPS
// makes explicit): Open/Node/Leaf callbacks run concurrently across
// buckets on a shared visitor instance, so they may only write
//
//   - per-call local state (including fields of a value receiver — the
//     method operates on its own copy),
//   - the target bucket's state from Node and Leaf (bucket visits are
//     serialized by the actor pump, and per-bucket results are the whole
//     point), or
//   - state whose writes are lock-guarded, atomic, or explicitly waived.
//
// The source-major form of a visitor — VisitSource(source, buckets, active,
// opened, leaf), one call per frame — is held to the same contract in its
// own terms: it may write the buckets (every bucket it is handed either
// gets Node, or opens), but not one it reports as opened unless the write
// sits under the leaf flag (that is Leaf), and never the active list, which
// sibling frames share.
//
// Everything else is a data race waiting for a scheduler interleaving:
// writes reachable from the source node (other traversals read it
// concurrently), writes to the target from Open (Open runs on the
// scheduling path, before the visit owns the bucket), writes through
// pointer fields of the visitor (shared across every concurrent bucket),
// and writes to package-level state.
//
// The analysis is interprocedural: every function in the package gets a
// summary of which parameters (and receiver) it writes through and
// whether it touches package-level state — counting only unguarded
// writes that escape the callee's own frame, fixed-pointed over the call
// graph with interface calls resolved to in-package implementations.
// A visitor callback passing source-derived state to a function that
// writes through it is reported at the call. Lock-guarded writes are
// recognized lockcheck-style (the mutex acquired anywhere in the
// function on the same root blesses the write); atomics pass naturally
// because atomic updates are method calls into sync/atomic, not
// assignments. Dynamic calls (func-typed fields, cross-package callees)
// are not tracked; each package vouches for its own helpers.
var PureVisitAnalyzer = &Analyzer{
	Name: "purevisit",
	Doc:  "checks that Visitor Open/Node/Leaf methods only write receiver-local or per-bucket state unless atomic, lock-guarded, or waived",
	Run:  runPureVisit,
}

// Origin bits for write targets. Bits 0..pvMaxParams-1 are parameter
// indices; the receiver and package-level state get high bits.
const (
	pvMaxParams = 32
	pvRecvBit   = uint64(1) << 50
	pvGlobalBit = uint64(1) << 51
	pvParamMask = uint64(1)<<pvMaxParams - 1
)

// pvSummary records what one function writes beyond its own frame.
type pvSummary struct {
	// params has bit i set when the function writes memory reachable
	// from parameter i, pvRecvBit for the receiver.
	params uint64
	// global marks unguarded writes to package-level state.
	global bool
}

func runPureVisit(pass *Pass) error {
	info := pass.TypesInfo()
	cg := BuildCallGraph(pass)

	// Write summaries, callees-first with an in-SCC fixpoint.
	sums := make(map[*types.Func]*pvSummary)
	for _, comp := range cg.SCCs() {
		for _, node := range comp {
			sums[node.Fn] = &pvSummary{}
		}
		for {
			changed := false
			for _, node := range comp {
				s := collectWrites(info, node, sums, nil)
				prev := sums[node.Fn]
				if s.params != prev.params || s.global != prev.global {
					*prev = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}

	// Visitor detection: a named type with Node and Leaf methods of
	// shape func(source, target) — two parameters, no results — is a
	// visitor; Open (two parameters, one result) rides along. This
	// catches single-tree Visitors and the dual-tree Node/Leaf pair.
	byType := make(map[*types.TypeName]map[string]*CGNode)
	for _, n := range cg.Nodes {
		fd := n.Decl
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		tn := recvTypeName(info, fd.Recv.List[0].Type)
		if tn == nil {
			continue
		}
		ms := byType[tn]
		if ms == nil {
			ms = make(map[string]*CGNode)
			byType[tn] = ms
		}
		ms[fd.Name.Name] = n
	}
	tns := make([]*types.TypeName, 0, len(byType))
	for tn := range byType {
		tns = append(tns, tn)
	}
	sort.Slice(tns, func(i, j int) bool { return tns[i].Pos() < tns[j].Pos() })
	for _, tn := range tns {
		ms := byType[tn]
		if vs := ms["VisitSource"]; vs != nil && isSourceVisit(vs.Fn) {
			checkSourceVisit(pass, info, vs, sums)
		}
		node, leaf := visitorCallback(ms["Node"], 0), visitorCallback(ms["Leaf"], 0)
		if node == nil || leaf == nil {
			continue
		}
		checkVisitorMethod(pass, info, node, sums, nil)
		checkVisitorMethod(pass, info, leaf, sums, nil)
		if open := visitorCallback(ms["Open"], 1); open != nil {
			checkVisitorMethod(pass, info, open, sums, openMayNotWrite(pass))
		}
	}
	return nil
}

// visitorCallback returns n when its function has exactly two parameters
// and nresults results, else nil.
func visitorCallback(n *CGNode, nresults int) *CGNode {
	if n == nil {
		return nil
	}
	sig := n.Fn.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != nresults {
		return nil
	}
	return n
}

// recvTypeName resolves a method receiver type expression to its
// declared type name (through pointers and generic instantiation).
func recvTypeName(info *types.Info, t ast.Expr) *types.TypeName {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			tn, _ := info.Uses[e].(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

// pvReport is one finding from collectWrites when run in checking mode.
type pvReport struct {
	pos    token.Pos
	bits   uint64
	callee string // non-empty when the write happens inside a callee
}

// collectWrites computes fn's write summary. With reports non-nil it
// also appends one pvReport per escaping unguarded write (direct or
// call-propagated) for the visitor checks.
func collectWrites(info *types.Info, node *CGNode, sums map[*types.Func]*pvSummary, reports *[]pvReport) pvSummary {
	fd := node.Decl
	sig := node.Fn.Type().(*types.Signature)

	// Seed origins: receiver and parameters.
	bits := make(map[types.Object]uint64)
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if obj := info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			bits[obj] = pvRecvBit
		}
	}
	for i := 0; i < sig.Params().Len() && i < pvMaxParams; i++ {
		bits[sig.Params().At(i)] = uint64(1) << i
	}

	originOf := func(expr ast.Expr) uint64 {
		root := pvRootObj(info, expr)
		if root == nil {
			return 0
		}
		if b, ok := bits[root]; ok {
			return b
		}
		if isPackageVar(root) {
			return pvGlobalBit
		}
		return 0
	}

	// Alias propagation for locals, two passes to catch forward chains.
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == nil || isPackageVar(obj) {
						continue
					}
					bits[obj] |= originOf(n.Rhs[i])
				}
			case *ast.RangeStmt:
				src := originOf(n.X)
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && id != nil {
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj != nil && !isPackageVar(obj) {
							bits[obj] |= src
						}
					}
				}
			}
			return true
		})
	}

	// Lock-guard blessing, lockcheck-style: a mutex acquired anywhere in
	// the function blesses writes rooted at the same object; a
	// package-level mutex blesses package-level writes.
	lockRoots := make(map[types.Object]bool)
	pkgMutexLocked := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cls, acquire := mutexClassOf(info, call); cls != nil && acquire {
			sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if sel != nil {
				if root := pvRootObj(info, sel.X); root != nil {
					lockRoots[root] = true
					if isPackageVar(root) {
						pkgMutexLocked = true
					}
				}
			}
		}
		return true
	})

	var sum pvSummary
	addWrite := func(pos token.Pos, root types.Object, b uint64, callee string) {
		if b == 0 {
			return
		}
		if root != nil && lockRoots[root] {
			return
		}
		if b&pvGlobalBit != 0 && pkgMutexLocked && b&^pvGlobalBit == 0 {
			return
		}
		sum.params |= b & (pvParamMask | pvRecvBit)
		if b&pvGlobalBit != 0 {
			sum.global = true
		}
		if reports != nil {
			*reports = append(*reports, pvReport{pos: pos, bits: b, callee: callee})
		}
	}

	writeTarget := func(pos token.Pos, lhs ast.Expr) {
		root, escapes := escapingWrite(info, lhs)
		if root == nil {
			return
		}
		if !escapes {
			// Bare local/param rebinding or a write into a value
			// variable's own storage — but a bare package var is
			// itself shared storage.
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				obj := info.Uses[id]
				if obj != nil && isPackageVar(obj) {
					addWrite(pos, obj, pvGlobalBit, "")
				}
			}
			return
		}
		b := uint64(0)
		if v, ok := bits[root]; ok {
			b = v
		} else if isPackageVar(root) {
			b = pvGlobalBit
		}
		addWrite(pos, root, b, "")
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				writeTarget(lhs.Pos(), lhs)
			}
		case *ast.IncDecStmt:
			writeTarget(n.X.Pos(), n.X)
		case *ast.CallExpr:
			// Propagate callee write summaries onto our arguments.
			callees := node.CalleesAt(n)
			if len(callees) == 0 {
				return true
			}
			var recvExpr ast.Expr
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s, selOK := info.Selections[sel]; selOK && s.Kind() == types.MethodVal {
					recvExpr = sel.X
				}
			}
			for _, callee := range callees {
				cs := sums[callee]
				if cs == nil {
					continue
				}
				if cs.params&pvRecvBit != 0 && recvExpr != nil {
					addWrite(n.Pos(), pvRootObj(info, recvExpr), originOf(recvExpr), callee.Name())
				}
				for i := 0; i < pvMaxParams; i++ {
					if cs.params&(uint64(1)<<i) == 0 || i >= len(n.Args) {
						continue
					}
					addWrite(n.Pos(), pvRootObj(info, n.Args[i]), originOf(n.Args[i]), callee.Name())
				}
				if cs.global {
					addWrite(n.Pos(), nil, pvGlobalBit, callee.Name())
				}
			}
		}
		return true
	})
	return sum
}

// checkVisitorMethod reports purity violations in one visitor callback.
// Writes through the source, shared visitor state and package state are
// findings in every callback; param (may be nil) judges the writes only
// the callback's form can: it sees each report that does not touch the
// source, and returns true when the report is settled.
func checkVisitorMethod(pass *Pass, info *types.Info, node *CGNode, sums map[*types.Func]*pvSummary, param func(r pvReport, via string) bool) {
	var reports []pvReport
	collectWrites(info, node, sums, &reports)
	name := node.Fn.Name()
	for _, r := range reports {
		via := ""
		if r.callee != "" {
			via = " (via call to " + r.callee + ")"
		}
		switch {
		case r.bits&1 != 0: // parameter 0 is the source node in every form
			pass.Reportf(r.pos,
				"%s writes state reachable from the source node%s; concurrent traversals share tree nodes — make it atomic, lock-guarded, or waive with a reason",
				name, via)
		case param != nil && param(r, via):
		case r.bits&pvRecvBit != 0:
			pass.Reportf(r.pos,
				"%s writes visitor state shared across concurrent buckets%s; use per-bucket state, an atomic, or a lock",
				name, via)
		case r.bits&pvGlobalBit != 0:
			pass.Reportf(r.pos,
				"%s writes package-level state%s; visitor callbacks run concurrently — make it atomic, lock-guarded, or waive with a reason",
				name, via)
		}
	}
}

// openMayNotWrite is Open's rule for its target (parameter 1).
func openMayNotWrite(pass *Pass) func(pvReport, string) bool {
	return func(r pvReport, via string) bool {
		if r.bits&2 == 0 {
			return false
		}
		pass.Reportf(r.pos,
			"Open must not mutate the target bucket%s; only Node and Leaf own the bucket's visit",
			via)
		return true
	}
}

// isSourceVisit reports whether fn has the source-major shape:
// (source, buckets, active, opened, leaf bool) with one result.
func isSourceVisit(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 5 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Params().At(4).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// checkSourceVisit reports purity violations in one VisitSource(source,
// buckets, active, opened, leaf).
func checkSourceVisit(pass *Pass, info *types.Info, node *CGNode, sums map[*types.Func]*pvSummary) {
	params := node.Fn.Type().(*types.Signature).Params()
	opened, leaf := params.At(3), params.At(4)
	body := node.Decl.Body

	// Every `opened = append(opened, ...)`: the point where a bucket is
	// reported as opened.
	var appends [][]ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, _ := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		call, _ := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if id == nil || call == nil || info.Uses[id] != opened {
			return true
		}
		if fn, _ := ast.Unparen(call.Fun).(*ast.Ident); fn != nil && fn.Name == "append" {
			appends = append(appends, enclosingPath(body, as.Pos()))
		}
		return true
	})

	const bucketsBit, activeBit = uint64(2), uint64(4)
	checkVisitorMethod(pass, info, node, sums, func(r pvReport, via string) bool {
		switch {
		case r.bits&activeBit != 0:
			pass.Reportf(r.pos, "VisitSource writes the active list%s; sibling frames share it", via)
		case r.bits&bucketsBit != 0:
			w := enclosingPath(body, r.pos)
			if underLeafFlag(info, w, r.pos, leaf) {
				break
			}
			for _, a := range appends {
				if onOnePath(w, a) {
					pass.Reportf(r.pos,
						"VisitSource mutates a bucket it reports as opened%s; only buckets that did not open take Node, and Leaf belongs under the leaf flag",
						via)
					break
				}
			}
		default:
			return false
		}
		return true
	})
}

// enclosingPath returns the chain of nodes from root down to the innermost
// one containing pos.
func enclosingPath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		path = append(path, n)
		return true
	})
	return path
}

// underLeafFlag reports whether pos sits in the body of an if statement
// whose condition reads the leaf parameter.
func underLeafFlag(info *types.Info, path []ast.Node, pos token.Pos, leaf *types.Var) bool {
	for _, n := range path {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || pos < ifs.Body.Pos() || pos >= ifs.Body.End() {
			continue
		}
		reads := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok && info.Uses[id] == leaf {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}

// onOnePath reports whether one pass through the code can execute both the
// write at the end of w and the append at the end of a. They cannot share a
// pass when they sit in different arms of an if or switch, or when the
// write's side of the fork ends in a jump (continue, break, return, goto)
// before rejoining. An under-approximation of exclusivity: anything it
// cannot rule out counts as one path.
func onOnePath(w, a []ast.Node) bool {
	i := 0
	for i < len(w) && i < len(a) && w[i] == a[i] {
		i++
	}
	if i > 0 && i < len(w) && i < len(a) {
		switch fork := w[i-1].(type) {
		case *ast.IfStmt:
			inArm := func(n ast.Node) bool { return n == ast.Node(fork.Body) || n == fork.Else }
			if inArm(w[i]) && inArm(a[i]) {
				return false
			}
		case *ast.BlockStmt:
			_, wc := w[i].(*ast.CaseClause)
			_, ac := a[i].(*ast.CaseClause)
			if wc && ac {
				return false
			}
		}
	}
	for _, n := range w[i:] {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		}
		if len(list) > 0 {
			switch list[len(list)-1].(type) {
			case *ast.BranchStmt, *ast.ReturnStmt:
				return false
			}
		}
	}
	return true
}

// pvRootObj resolves the leftmost identifier of an expression chain,
// additionally seeing through type assertions and slice expressions
// (rootIdentObj covers selectors, indexing, derefs, and unary ops).
func pvRootObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.TypeAssertExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.CallExpr:
			return nil
		default:
			return rootIdentObj(info, expr)
		}
	}
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// escapingWrite decides whether an assignment target reaches memory
// outside the written variable's own storage, and finds the chain root.
// `v.count = 1` on a value receiver stays in the method's copy (no
// escape); `v.rec.count = 1` crosses a pointer field and escapes, as do
// slice/map element writes and explicit derefs.
func escapingWrite(info *types.Info, lhs ast.Expr) (root types.Object, escapes bool) {
	expr := lhs
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return obj, escapes
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if tv, ok := info.Types[e.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					escapes = true
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			if tv, ok := info.Types[e.X]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					escapes = true
				}
			}
			expr = e.X
		case *ast.StarExpr:
			escapes = true
			expr = e.X
		case *ast.TypeAssertExpr:
			expr = e.X
		default:
			return nil, escapes
		}
	}
}
