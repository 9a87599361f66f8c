package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// callgraph.go derives the hot set: every function the static call
// graph of the loaded packages reaches from the hot roots. Run computes
// it before any checking analyzer runs, because the hot set flows
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

// hotSet returns the FullNames of every function reachable from the
// hot roots along the static call edges of pkgs. The roots are
// HotRoots plus every function annotated `//phantomvet:hotroot` — the
// escape hatch fixture packages and future subsystems use to opt a
// function in without editing HotRoots. Closure bodies are attributed
// to the function whose body lexically contains them (a closure runs
// with its creator's budget until it escapes, and the hot path creates
// none).
func hotSet(pkgs []*Package) map[string]bool {
	roots := append([]string(nil), HotRoots...)
	edges := make(map[string][]string)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			annotated := hotrootLines(pkg.Fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				name := obj.FullName()
				if annotated[pkg.Fset.Position(fd.Pos()).Line] {
					roots = append(roots, name)
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := staticCallee(pkg.Info, call); callee != nil {
							edges[name] = append(edges[name], callee.FullName())
						}
					}
					return true
				})
			}
		}
	}
	return reachable(edges, roots)
}

// hotrootLines returns the set of lines f's phantomvet:hotroot
// directives apply to: the line after the directive comment (the
// func declaration it documents).
func hotrootLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), "phantomvet:hotroot") {
				out[fset.Position(c.Pos()).Line+1] = true
			}
		}
	}
	return out
}

// reachable returns every function reachable from the given roots
// (inclusive) along edges, which maps a function's FullName to the
// FullNames it calls. Callees with no entry (stdlib, packages not
// loaded) simply have no out-edges.
func reachable(edges map[string][]string, roots []string) map[string]bool {
	seen := make(map[string]bool)
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, edges[fn]...)
	}
	return seen
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
