package analysis

import (
	"go/ast"
	"go/types"
)

// FaultAlloc forbids heap-allocating Fault values on the simulator's
// hot paths.
//
// The zero-allocation fetch/translate fast path flattened every
// &Fault{} into value returns (TranslateV and scratch Fault values):
// a pointer-shaped Fault escapes to the heap on every missed probe,
// and the Prime+Probe experiments miss millions of times per run. The
// regression is invisible in unit tests — everything still passes,
// just slower and GC-noisier — so the analyzer pins the shape
// instead: no &Fault{...}, new(Fault), or address-of a Fault
// composite anywhere in the simulation core. Benchmarks with
// ReportAllocs guard the totals; this guards the idiom.
var FaultAlloc = &Analyzer{
	Name: "faultalloc",
	Doc: "forbid &Fault{}/new(Fault) on the hot translate/probe paths — " +
		"Faults are passed and returned by value so the fast path stays allocation-free",
	Applies: faultAllocScope,
	Run:     runFaultAlloc,
}

// faultAllocScope: the packages on (or feeding) the per-instruction
// fetch/translate/probe path, the BTB that every step consults included.
func faultAllocScope(pkgPath, filename string) bool {
	switch pkgPath {
	case "phantom/internal/mem", "phantom/internal/pipeline", "phantom/internal/cache",
		"phantom/internal/btb", "phantom/internal/uarch", "phantom/internal/core", "phantom/internal/kernel":
		return true
	}
	return false
}

func runFaultAlloc(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op.String() != "&" {
					return true
				}
				if cl, ok := n.X.(*ast.CompositeLit); ok && isFaultType(pass, cl) {
					pass.Reportf(n.Pos(), "&Fault{} allocates on the hot path; pass Fault by value (the fast path is pinned allocation-free)")
				}
			case *ast.CallExpr:
				name, ok := builtinName(pass, n)
				if !ok || name != "new" || len(n.Args) != 1 {
					return true
				}
				if tv, ok := pass.Info.Types[n.Args[0]]; ok && isNamedFault(tv.Type) {
					pass.Reportf(n.Pos(), "new(Fault) allocates on the hot path; use a value Fault (the fast path is pinned allocation-free)")
				}
			}
			return true
		})
	}
}

// isFaultType reports whether the composite literal builds a value of
// a named type called Fault. The check is by name rather than by a
// hard-wired package path so the fixture packages (and any future
// second fault-like type) exercise the same rule the simulator does.
func isFaultType(pass *Pass, cl *ast.CompositeLit) bool {
	tv, ok := pass.Info.Types[cl]
	if !ok {
		return false
	}
	return isNamedFault(tv.Type)
}

func isNamedFault(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Fault"
}
