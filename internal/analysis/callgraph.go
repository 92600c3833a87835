package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Package-level call graph, the substrate for pendingbalance's
// callees-first summaries. Nodes are the package's own function
// declarations, keyed by their generic-origin *types.Func so instantiated
// calls resolve to the declared body. Edges are static calls only — the
// callee is named directly (function, method, explicit generic
// instantiation), as staticCallee resolves it; interface and func-value
// calls reach no node, so each package vouches for its own surface.
//
// Calls inside function literals are attributed to the enclosing
// declaration: work a function's closures do is still that function's
// doing.

// CGNode is one declared function and the in-package functions it calls.
type CGNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []*types.Func
}

// CallGraph holds every declared function of one package.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
}

// BuildCallGraph constructs the package call graph for a pass.
func BuildCallGraph(pass *Pass) *CallGraph {
	info := pass.TypesInfo()
	g := &CallGraph{Nodes: make(map[*types.Func]*CGNode)}
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				g.Nodes[fn] = &CGNode{Fn: fn, Decl: fd}
			}
		}
	}
	for _, node := range g.Nodes {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := staticCallee(info, call); callee != nil {
					if _, inPkg := g.Nodes[callee.Origin()]; inPkg {
						node.Calls = append(node.Calls, callee.Origin())
					}
				}
			}
			return true
		})
	}
	return g
}

// SCCs returns the strongly connected components of the call graph in
// reverse topological order — every component comes after the components
// it calls into — so summary fixpoints can run callees-first. Within the
// result, ordering is deterministic (by declaration position).
func (g *CallGraph) SCCs() [][]*CGNode {
	// Iterative Tarjan. Nodes are visited in declaration order so the
	// component numbering (and hence output order) is stable.
	nodes := make([]*CGNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Fn.Pos() < nodes[j].Fn.Pos() })

	index := make(map[*CGNode]int)
	lowlink := make(map[*CGNode]int)
	onStack := make(map[*CGNode]bool)
	var stack []*CGNode
	var sccs [][]*CGNode
	next := 0

	type frame struct {
		node *CGNode
		edge int
	}
	var dfs []frame
	push := func(n *CGNode) {
		index[n] = next
		lowlink[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		dfs = append(dfs, frame{node: n})
	}

	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		push(root)
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if f.edge < len(f.node.Calls) {
				callee := g.Nodes[f.node.Calls[f.edge]]
				f.edge++
				if callee == nil {
					continue
				}
				if _, seen := index[callee]; !seen {
					push(callee)
				} else if onStack[callee] {
					if index[callee] < lowlink[f.node] {
						lowlink[f.node] = index[callee]
					}
				}
				continue
			}
			// Done with f.node.
			n := f.node
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				parent := dfs[len(dfs)-1].node
				if lowlink[n] < lowlink[parent] {
					lowlink[parent] = lowlink[n]
				}
			}
			if lowlink[n] == index[n] {
				var comp []*CGNode
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i].Fn.Pos() < comp[j].Fn.Pos() })
				sccs = append(sccs, comp)
			}
		}
	}
	// Tarjan emits components callees-first already.
	return sccs
}
