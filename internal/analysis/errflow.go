package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrFlow forbids silently discarding errors from durability
// operations in the persistence and cluster tier.
//
// The result store's crash-safety story is fsync-then-rename: a write
// is durable only once Sync and Close both succeed, and the only
// channel those primitives have for reporting a lost write IS the
// error result. A bare `f.Close()` statement — or `defer f.Sync()` —
// throws that report away: the store acks a result that may not be on
// disk, and the sweep coordinator will never re-dispatch the shard.
// The rule: an error from a durability primitive (Sync, Close, Rename,
// Flock, Flush, ...) or from any in-repo function marked durable must
// be bound, not dropped. The explicit blank assignment `_ = f.Close()`
// stays legal as the auditable opt-out — it is greppable and shows up
// in review, while a bare call statement reads like the error never
// existed.
//
// Durability is interprocedural: a helper that wraps Sync is as
// durable as Sync itself. ErrFlow therefore records in the run's
// durable map every function in scope whose body calls a durability op
// and returns an error; Run analyzes packages in dependency order, so
// callers in importing packages are checked against those entries.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: "forbid discarding errors from durability operations (Sync/Close/Rename/Flock/Flush and in-repo functions marked durable) " +
		"in the persistence tier; use an explicit `_ =` when dropping the error is a considered decision",
	Applies: errFlowScope,
	Run:     runErrFlow,
}

// errFlowScope: the packages that own bytes-on-disk or bytes-on-wire
// durability — the result store, the cluster transport, and the sweep
// coordinator that acks shards.
func errFlowScope(pkgPath, filename string) bool {
	switch pkgPath {
	case "phantom/internal/store", "phantom/internal/cluster", "phantom/internal/sweep",
		"phantom/internal/service":
		return true
	}
	return false
}

// durablePrimitives maps FullNames of stdlib/syscall durability
// primitives to the reason they must not be discarded.
var durablePrimitives = map[string]string{
	"(*os.File).Sync":       "reports whether the write reached disk",
	"(*os.File).Close":      "reports deferred write-back errors",
	"(*os.File).Truncate":   "reports whether the truncate reached disk",
	"os.Rename":             "is the commit point of write-then-rename",
	"os.Remove":             "reports whether the unlink happened",
	"syscall.Flock":         "reports whether the lock is actually held",
	"syscall.Fsync":         "reports whether the write reached disk",
	"(*bufio.Writer).Flush": "reports whether buffered bytes were written",
}

func runErrFlow(pass *Pass) {
	markDurable(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDiscardedCall(pass, n.X, "")
			case *ast.DeferStmt:
				checkDiscardedCall(pass, n.Call, "defer ")
			case *ast.GoStmt:
				checkDiscardedCall(pass, n.Call, "go ")
			}
			return true
		})
	}
}

// checkDiscardedCall reports e when it is a call whose discarded error
// result carries a durability outcome.
func checkDiscardedCall(pass *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := staticCallee(pass.Info, call)
	if fn == nil || !returnsError(fn) {
		return
	}
	reason, durable := durableReason(pass, fn)
	if !durable {
		return
	}
	pass.Reportf(e.Pos(), "%s%s discards its error, which %s; bind it or make the drop explicit with `_ =`",
		how, fn.Name(), reason)
}

// returnsError reports whether fn's last result is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// durableReason reports whether fn's error result carries a durability
// outcome, either because fn is a known primitive or because the run's
// durable map holds it: declared in this package, or in an import
// analyzed before it.
func durableReason(pass *Pass, fn *types.Func) (string, bool) {
	if reason, ok := durablePrimitives[fn.FullName()]; ok {
		return reason, true
	}
	reason, ok := pass.state.durable[fn.FullName()]
	return reason, ok
}

// markDurable walks the package's declared functions and records as
// durable every one that returns an error and calls a durability
// primitive (or an already-recorded durable function) in its body.
// Iterating to a fixpoint handles helper-calls-helper chains within
// the package regardless of declaration order.
func markDurable(pass *Pass) {
	type candidate struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var candidates []candidate
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || !returnsError(fn) {
				continue
			}
			candidates = append(candidates, candidate{fn, fd.Body})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range candidates {
			if _, ok := pass.state.durable[c.fn.FullName()]; ok {
				continue
			}
			ast.Inspect(c.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(pass.Info, call)
				if callee == nil || callee == c.fn {
					return true
				}
				if _, ok := durableReason(pass, callee); ok {
					pass.state.durable[c.fn.FullName()] = "calls " + displayName(callee)
					changed = true
					return false
				}
				return true
			})
		}
	}
}

// displayName renders fn for messages: Type.Method or pkg.Func without
// the import-path and pointer noise of FullName.
func displayName(fn *types.Func) string {
	full := fn.FullName()
	full = strings.Map(func(r rune) rune {
		switch r {
		case '(', ')', '*':
			return -1
		}
		return r
	}, full)
	if i := strings.LastIndex(full, "/"); i >= 0 {
		full = full[i+1:]
	}
	return full
}
