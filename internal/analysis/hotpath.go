package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// HotPathAnalyzer enforces the per-visit discipline on functions marked
// //paratreet:hotpath and everything they reach through intra-package
// static calls: no clock reads (time.Now/Since/Until), no fmt.* calls, no
// map creation, no closures, no defer, no goroutine launches. These are
// the operations that turn a nanoseconds-per-node traversal loop into a
// malloc-and-syscall loop; timing and formatting belong at frame/task
// granularity, outside the marked functions.
//
// Propagation stops at //paratreet:coldpath functions (miss paths, error
// paths), at cross-package calls (each package marks its own hot surface),
// and at dynamic calls (interface methods, func values).
//
// In the event-driven packages (see eventDriven) it also flags time.Sleep
// inside a loop, in any function, marked or not: that is a poll, and a
// poll's latency is the host timer's (a 5µs sleep returned after a median
// 1064µs where this rule was written), not the event's.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "checks that //paratreet:hotpath functions (and intra-package callees) avoid clocks, fmt, map allocation, closures, defer, and go, and that the event-driven packages never sleep-poll",
	Run:  runHotPath,
}

// eventDriven lists the packages between a request and its answer. Their
// goroutines block on channels and condition variables and are woken by
// the event they wait for; none may wait by sleeping in a loop.
var eventDriven = map[string]bool{
	"paratreet/internal/rt":       true,
	"paratreet/internal/serve":    true,
	"paratreet/internal/cache":    true,
	"paratreet/internal/traverse": true,
	"testdata/hotpathdata":        true, // the golden package
}

func runHotPath(pass *Pass) error {
	info := pass.TypesInfo()

	if eventDriven[pass.TypesPkg().Path()] {
		for _, file := range pass.Files() {
			checkSleepPolls(pass, info, file)
		}
	}

	// Conflicting marks are their own finding; a function marked both is
	// treated as cold (propagation stops there).
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if funcDirective(fd, DirColdPath) && funcDirective(fd, DirHotPath) {
				pass.Reportf(fd.Name.Pos(), "%s is marked both //paratreet:hotpath and //paratreet:coldpath", fd.Name.Name)
			}
		}
	}

	// Hot marks propagate through intra-package static calls (BFS in
	// hotFuncs, shared with lockorder's no-locks-on-hot-paths rule).
	hot, declByObj := hotFuncs(pass)
	if len(hot) == 0 {
		return nil
	}

	// Check every hot function's body.
	checked := make([]*types.Func, 0, len(hot))
	for fn := range hot {
		checked = append(checked, fn)
	}
	sort.Slice(checked, func(i, j int) bool { return checked[i].Pos() < checked[j].Pos() })
	for _, fn := range checked {
		fd := declByObj[fn]
		where := fmt.Sprintf("hotpath function %s", fd.Name.Name)
		if root := hot[fn]; root != fd.Name.Name {
			where = fmt.Sprintf("%s (reachable from hotpath %s)", fd.Name.Name, root)
		}
		checkHotBody(pass, info, fd, where)
	}
	return nil
}

// checkHotBody reports every forbidden construct in one hot function.
func checkHotBody(pass *Pass, info *types.Info, fd *ast.FuncDecl, where string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s creates a closure; hoist it out of the per-visit path", where)
			return false // don't double-report the closure's own body
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s uses defer; unlock/cleanup explicitly on the per-visit path", where)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s launches a goroutine per visit; batch or hoist the spawn", where)
		case *ast.CompositeLit:
			if _, ok := info.Types[n].Type.Underlying().(*types.Map); ok {
				pass.Reportf(n.Pos(), "%s allocates a map; preallocate outside the per-visit path", where)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(n.Args) > 0 {
					if tv, ok := info.Types[n.Args[0]]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), "%s allocates a map; preallocate outside the per-visit path", where)
						}
					}
				}
				return true
			}
			callee := staticCallee(info, n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch callee.Pkg().Path() {
			case "time":
				switch callee.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(n.Pos(), "%s calls time.%s; hoist timing to frame granularity", where, callee.Name())
				}
			case "fmt":
				pass.Reportf(n.Pos(), "%s calls fmt.%s; formatting does not belong on the per-visit path", where, callee.Name())
			}
		}
		return true
	})
}

// checkSleepPolls reports every time.Sleep that sits inside a loop under
// root. A closure in a loop body starts over: it runs when it is called,
// not once per iteration.
func checkSleepPolls(pass *Pass, info *types.Info, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				checkSleepPolls(pass, info, m.Body)
				return false
			case *ast.CallExpr:
				if fn := staticCallee(info, m); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
					pass.Reportf(m.Pos(), "time.Sleep in a loop polls by the host timer; block on a channel or sync.Cond and have the producer wake it")
				}
			}
			return true
		})
		return false // the inner Inspect covered nested loops
	})
}

// staticCallee resolves a call expression to the *types.Func it statically
// invokes, or nil for dynamic calls (func values, interface methods resolve
// to abstract funcs which later fail the in-package decl lookup),
// conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}
