package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow forbids dropping the caller's context on the way down.
//
// One context per request or run is threaded end to end: client
// disconnects, deadlines and interrupts must reach the sweep workers,
// the experiment drivers they feed, and the simulated machines those
// boot, or a dead request keeps burning a scheduler slot. Two shapes
// silently cut that thread, and the analyzer flags both:
//
//   - context.Background()/TODO() lexically inside a function (or
//     closure) that already has a context.Context parameter in scope
//     forks the cancellation tree: everything below the fork ignores
//     the caller;
//   - a context.Context parameter named _ discards the context the
//     caller handed in, typically a sweep job's: the work the function
//     starts runs unbounded.
//
// Deliberate detaches (the request coalescer's flight context, whose
// lifetime is the set of waiters rather than any single caller) carry a
// phantomvet:ignore with the justification.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background()/context.TODO() where a caller-provided context is in scope, and " +
		"context parameters named _ — cancellation must flow end-to-end, not fork or stop",
	Applies: ctxFlowScope,
	Run:     runCtxFlow,
}

// ctxFlowScope: the packages on the request path below the CLIs, down to
// the experiment drivers that bind contexts to machines. The binaries in
// cmd/ own their root contexts legitimately.
func ctxFlowScope(pkgPath, filename string) bool {
	switch pkgPath {
	case "phantom", "phantom/internal/core", "phantom/internal/service", "phantom/internal/sweep":
		return true
	}
	return false
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Files {
		checkCtxNode(pass, file, false)
	}
}

// checkCtxNode walks n. inScope records whether some enclosing
// function has a context.Context parameter; closures inherit it, since
// the captured context is still reachable where the closure's body
// runs.
func checkCtxNode(pass *Pass, n ast.Node, inScope bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				has := hasCtxParam(pass, n.Type)
				checkCtxNode(pass, n.Body, inScope || has)
			}
			return false
		case *ast.FuncLit:
			has := hasCtxParam(pass, n.Type)
			checkCtxNode(pass, n.Body, inScope || has)
			return false
		case *ast.SelectorExpr:
			if !inScope {
				return true
			}
			_, pkgPath := selectorPackage(pass, n)
			if pkgPath == "context" && (n.Sel.Name == "Background" || n.Sel.Name == "TODO") {
				pass.Reportf(n.Pos(), "context.%s forks the cancellation tree while a caller-provided context is in scope; thread the caller's context (or phantomvet:ignore with the detach rationale)", n.Sel.Name)
			}
		}
		return true
	})
}

// hasCtxParam reports whether ft declares a parameter of type
// context.Context, and reports each such parameter named _.
func hasCtxParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	found := false
	for _, field := range ft.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() != "Context" || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			continue
		}
		found = true
		for _, name := range field.Names {
			if name.Name == "_" {
				pass.Reportf(name.Pos(), "context.Context parameter named _ discards the caller's context; bind it to the work this function starts (or phantomvet:ignore with the reason)")
			}
		}
	}
	return found
}
