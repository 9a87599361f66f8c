package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// callgraph.go extracts per-package static call summaries and
// assembles them into the whole-repo call graph. The summary is a
// fact (facts.go): each package exports the out-edges of its
// functions, and Run computes reachability over the union before any
// checking analyzer runs. That order matters because the hot set flows
// against the import DAG: a function is hot when a hot root in some
// importing package reaches it.
//
// Resolution is static and conservative: direct calls and method
// calls whose callee the type-checker resolved to a concrete
// *types.Func. Calls through interfaces, function-typed values, and
// method values are not resolved — a function only reachable through
// those is treated as cold, which is the right default for hotalloc
// (the simulator's per-step path is direct calls throughout; an
// indirect call on it would itself be a finding someday, not today).

// summarizePackage computes pkg's call-summary facts: one entry per
// declared function or method, closure bodies attributed to the
// function whose body lexically contains them (a closure runs with
// its creator's budget until it escapes, and the hot path creates
// none).
func summarizePackage(pkg *Package) *PackageFacts {
	pf := newPackageFacts()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			callees := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := staticCallee(pkg.Info, call); callee != nil {
					callees[callee.FullName()] = true
				}
				return true
			})
			names := make([]string, 0, len(callees))
			for name := range callees {
				names = append(names, name)
			}
			sort.Strings(names)
			pf.fact(obj.FullName()).Callees = names
		}
	}
	return pf
}

// staticCallee resolves a call expression to the concrete function it
// invokes, or nil for indirect calls, builtins, and conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// A method selected off an interface value has no body to
		// walk into; only concrete receivers resolve statically.
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return fn
}

// A CallGraph is the union of every package's call-summary facts:
// adjacency over function FullNames.
type CallGraph struct {
	Edges map[string][]string
}

// BuildCallGraph merges the Callees facts of the given packages into
// one graph. Packages are keyed by path only for determinism of the
// merge; edge targets may name functions in packages outside the set
// (stdlib), which simply have no out-edges.
func BuildCallGraph(facts map[string]*PackageFacts) *CallGraph {
	g := &CallGraph{Edges: make(map[string][]string)}
	paths := make([]string, 0, len(facts))
	for path := range facts {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pf := facts[path]
		if pf == nil {
			continue
		}
		for _, name := range pf.names() {
			if f := pf.Funcs[name]; len(f.Callees) > 0 {
				g.Edges[name] = append(g.Edges[name], f.Callees...)
			}
		}
	}
	return g
}

// Reachable returns every function reachable from the given roots
// (inclusive) along static call edges.
func (g *CallGraph) Reachable(roots []string) map[string]bool {
	seen := make(map[string]bool)
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, g.Edges[fn]...)
	}
	return seen
}
