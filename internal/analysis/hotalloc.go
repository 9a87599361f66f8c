package analysis

import (
	"go/ast"
	"go/types"
)

// HotRoots are the entry points of the simulator's per-instruction
// path. Everything the call graph can reach from these — across
// package boundaries — is "hot": it runs once per simulated fetch or
// step, millions of times per Prime+Probe experiment.
var HotRoots = []string{
	"(*phantom/internal/pipeline.Machine).Run",
	"(*phantom/internal/pipeline.Machine).RunAt",
	"(*phantom/internal/pipeline.Machine).TimedFetch",
	"(*phantom/internal/pipeline.Machine).TimedLoad",
	"(*phantom/internal/pipeline.Machine).FlushVA",
}

// HotAlloc is the interprocedural generalization of faultalloc: no
// heap allocation in any function the whole-repo call graph marks
// reachable from the hot roots.
//
// faultalloc pins one shape (&Fault{}) in a fixed package list; it
// misses the helper two calls away that builds a []Probe on every
// step. HotAlloc closes that gap with the call graph: Run computes
// the set of functions reachable from HotRoots across the loaded
// packages (callgraph.go) and this analyzer flags the allocating
// shapes inside them — address-of composite literal, new(T), map and
// slice composite literals, and growing append. Plain `make` is
// deliberately NOT flagged: the simulator's sanctioned amortization
// idiom is a make'd arena reused across steps (btb.set), and append
// into a 3-arg-make'd slice in the same function is recognized as that
// idiom too.
//
// Cold constructors stay free to allocate: NewX functions run once.
// What matters is reachability from the roots, not package membership.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap-allocating shapes (&T{}, new, map/slice literals, growing append) in functions " +
		"reachable from the pipeline hot roots; amortize with a reused make'd arena instead",
	Applies: hotAllocScope,
	Run:     runHotAlloc,
}

// hotAllocScope mirrors faultalloc's package list — the simulation
// core. The call graph narrows further to actually-hot functions;
// the scope only bounds which packages are checked.
func hotAllocScope(pkgPath, filename string) bool {
	return faultAllocScope(pkgPath, filename)
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || !pass.state.hot[fn.FullName()] {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

// checkHotBody flags the allocating shapes in one hot function's body.
// Nested function literals are skipped: a closure allocates at
// creation (which would itself be flagged if written here as &...) and
// the hot path creates none.
func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	madeCap := threeArgMakeVars(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() != "&" {
				return true
			}
			if _, ok := n.X.(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(), "&composite literal allocates in a hot function (reachable from the pipeline roots); use a value or a reused arena")
			}
		case *ast.CompositeLit:
			tv, ok := pass.Info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in a hot function; hoist it to a field or package-level table")
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in a hot function; hoist it or reuse a make'd arena")
			}
		case *ast.CallExpr:
			name, ok := builtinName(pass, n)
			if !ok {
				return true
			}
			switch name {
			case "new":
				pass.Reportf(n.Pos(), "new(...) allocates in a hot function; use a value or a reused arena")
			case "append":
				if len(n.Args) == 0 {
					return true
				}
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok && madeCap[pass.Info.ObjectOf(id)] {
					return true // appending into a slice pre-sized in this function
				}
				pass.Reportf(n.Pos(), "append may grow its backing array in a hot function; pre-size with a 3-arg make or reuse an arena")
			}
		}
		return true
	})
}

// threeArgMakeVars collects the slice variables assigned a 3-arg make
// in this body: appends into them up to capacity are allocation-free,
// which is the sanctioned pre-size-then-fill idiom.
func threeArgMakeVars(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			if name, ok := builtinName(pass, call); !ok || name != "make" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}
