// Package analysis is phantom-vet: a small static-analysis suite that
// enforces the simulator's determinism, parity, and no-perturbation
// invariants at compile time instead of discovering violations in the
// runtime parity tests.
//
// The repo's core value is that every experiment is bit-deterministic
// for a given seed — that is what lets the predecode, telemetry, and
// serving subsystems pin byte-identical parity. Those invariants die by
// a thousand cuts: a stray time.Now in a hot loop, an unseeded
// math/rand call, a map range feeding rendered output. Each analyzer in
// this package encodes one such invariant as a syntactic/type-level
// rule so `make check` rejects the cut before a parity test has to
// bisect it.
//
// The package is deliberately self-contained: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, an
// analysistest-style fixture harness) on top of the standard library's
// go/ast and go/types only, because the build environment vendors no
// third-party modules. If the tree ever grows an x/tools dependency,
// each Analyzer here translates mechanically: Run already has the
// (pass) -> diagnostics signature.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one invariant check. It is the stdlib-only
// analogue of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// phantomvet:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant the
	// analyzer enforces and why the repo needs it.
	Doc string

	// Applies reports whether the analyzer's invariant covers the
	// given package path and file. Run consults it; the fixture
	// harness runs a copy with a nil Applies so testdata exercises
	// the raw rule. A nil Applies means "everywhere".
	Applies func(pkgPath, filename string) bool

	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one package's syntax and type information through an
// Analyzer.Run invocation, plus the flow engine's shared state: lazy
// per-function CFGs and the state Run carries across packages.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg   *Package
	state *runState
	diags []Diagnostic
}

// runState is what one Run carries from package to package.
type runState struct {
	// hot holds the FullNames of the functions reachable from the hot
	// roots over the call edges of every loaded package (callgraph.go).
	hot map[string]bool

	// durable maps the FullName of every function errflow has found to
	// report a durability outcome to the reason. Run analyzes packages
	// in dependency order, so an importer sees its imports' entries.
	durable map[string]string
}

// CFG returns the (lazily built) control-flow graph of fn, which must
// be an *ast.FuncDecl or *ast.FuncLit. The cache lives on the Package,
// so the suite builds each function's graph at most once per package
// no matter how many analyzers consult it.
func (p *Pass) CFG(fn ast.Node) *CFG {
	if p.pkg.cfgs == nil {
		p.pkg.cfgs = make(map[ast.Node]*CFG)
	}
	c := p.pkg.cfgs[fn]
	if c == nil {
		c = BuildCFG(fn)
		p.pkg.cfgs[fn] = c
	}
	return c
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the file:line:col form the other
// phantom binaries (and go vet) use.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// LoadTime is how long Load spent parsing and type-checking the
	// package.
	LoadTime time.Duration

	cfgs map[ast.Node]*CFG // shared lazy CFG cache (Pass.CFG)
}

// ignoreDirective matches a suppression comment. The analyzer name (or
// "all") must follow the directive; anything after it is the
// human-facing justification, which is mandatory in spirit — a bare
// ignore with no reason tells a reviewer nothing.
//
// The name list is comma-separated with no spaces; everything after
// the first space is the reason.
//
//	x := pick(m) //phantomvet:ignore maporder keys are re-sorted by caller
//
// Like the toolchain's //go: directives, a suppression is written with
// no space between // and phantomvet: and must begin the comment. A
// doc comment that merely *mentions* a directive mid-sentence (or an
// indented example like the one above, whose comment text starts with
// the code) is prose, not a suppression — anchoring here is what keeps
// unusedignore from flagging documentation.
var ignoreDirective = regexp.MustCompile(`^//phantomvet:ignore\s+([a-z,]+)`)

// A directive is one parsed phantomvet:ignore comment: the names it
// suppresses, its position, and — per name — whether it ever actually
// suppressed a diagnostic this run. A directive whose named analyzer
// ran but never fired on its lines has outlived its reason, and the
// unusedignore pseudo-analyzer reports it.
type directive struct {
	pos   token.Position
	names []string
	used  map[string]bool
}

// A directiveSet indexes a package's directives by the lines they
// cover (a directive suppresses its own line and the line immediately
// below, so it can sit above the flagged statement).
type directiveSet struct {
	byLine map[int][]*directive // same-file lines; fixtures and packages never collide across files on line+name in practice, but matching also checks the file
	all    []*directive
}

func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byLine: make(map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				d := &directive{
					pos:  fset.Position(c.Pos()),
					used: make(map[string]bool),
				}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' }) {
					d.names = append(d.names, name)
				}
				ds.all = append(ds.all, d)
				ds.byLine[d.pos.Line] = append(ds.byLine[d.pos.Line], d)
				ds.byLine[d.pos.Line+1] = append(ds.byLine[d.pos.Line+1], d)
			}
		}
	}
	return ds
}

// suppresses reports whether some directive covers a diagnostic by
// analyzer name (or "all") on its line, marking the directive used.
func (ds *directiveSet) suppresses(d Diagnostic) bool {
	hit := false
	for _, dir := range ds.byLine[d.Pos.Line] {
		if dir.pos.Filename != d.Pos.Filename {
			continue
		}
		for _, name := range dir.names {
			if name == d.Analyzer || name == "all" {
				dir.used[name] = true
				hit = true
			}
		}
	}
	return hit
}

// unusedDiags reports directives with names that never suppressed
// anything, restricted to names whose analyzers were actually part of
// this run (a -run subset cannot prove a suppression dead). Unknown
// names are always reported: they suppress nothing today and would
// silently rot.
func (ds *directiveSet) unusedDiags(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range ds.all {
		for _, name := range dir.names {
			if dir.used[name] {
				continue
			}
			var msg string
			switch {
			case name == "all":
				msg = "phantomvet:ignore all suppresses nothing here; delete the directive"
			case ByName(name) == nil:
				msg = fmt.Sprintf("phantomvet:ignore names unknown analyzer %q; delete or fix the directive", name)
			case !ran[name]:
				continue // that analyzer did not run; can't judge
			default:
				msg = fmt.Sprintf("phantomvet:ignore %s suppresses nothing here; the finding it silenced is gone, delete the directive", name)
			}
			out = append(out, Diagnostic{Analyzer: UnusedIgnore.Name, Pos: dir.pos, Message: msg})
		}
	}
	return out
}

// runOne applies a single analyzer to a package and returns its
// diagnostics with phantomvet:ignore suppressions removed (marking the
// directives used). Diagnostics in files outside a.Applies are dropped:
// package-level applicability is Run's concern, file-level is handled
// here because only the diagnostic knows its file.
func runOne(a *Analyzer, pkg *Package, ds *directiveSet, state *runState) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		pkg:      pkg,
		state:    state,
	}
	a.Run(pass)
	var out []Diagnostic
	for _, d := range pass.diags {
		if ds.suppresses(d) {
			continue
		}
		if a.Applies != nil && !a.Applies(pkg.PkgPath, d.Pos.Filename) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run applies every analyzer in the suite to every package and returns
// the combined findings sorted by position. It derives the hot set from
// the call edges of every package first, because the hot set flows
// against the import DAG: a function is hot when a hot root in some
// importing package reaches it. It then analyzes the packages one at a
// time in dependency order, so errflow's durable map holds every
// import's durable functions before an importer is checked. When the
// suite includes unusedignore, each package's directives that
// suppressed nothing for an analyzer that ran are reported too.
// timing, when non-nil, receives each analyzer's wall time on each
// package.
func Run(suite []*Analyzer, pkgs []*Package, timing func(pkgPath, analyzer string, d time.Duration)) []Diagnostic {
	ordered := topoSort(pkgs)
	state := &runState{hot: hotSet(ordered), durable: make(map[string]string)}
	ran := make(map[string]bool)
	unusedCheck := false
	for _, a := range suite {
		if a.Name == UnusedIgnore.Name {
			unusedCheck = true
		} else {
			ran[a.Name] = true
		}
	}
	var out []Diagnostic
	for _, pkg := range ordered {
		ds := parseDirectives(pkg.Fset, pkg.Files)
		for _, a := range suite {
			if a.Name == UnusedIgnore.Name || a.Applies != nil && !packageInScope(a, pkg) {
				continue
			}
			start := time.Now()
			out = append(out, runOne(a, pkg, ds, state)...)
			if timing != nil {
				timing(pkg.PkgPath, a.Name, time.Since(start))
			}
		}
		if unusedCheck {
			out = append(out, ds.unusedDiags(ran)...)
		}
	}
	sortDiagnostics(out)
	return out
}

// topoSort orders packages so that every package follows the packages
// it imports (restricted to the given set). Ties and unrelated
// packages keep a deterministic path order.
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	sort.Strings(paths)
	var out []*Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		p := byPath[path]
		if p == nil || state[path] != 0 {
			return
		}
		state[path] = 1
		if p.Types != nil {
			imps := make([]string, 0, len(p.Types.Imports()))
			for _, imp := range p.Types.Imports() {
				imps = append(imps, imp.Path())
			}
			sort.Strings(imps)
			for _, imp := range imps {
				visit(imp)
			}
		}
		state[path] = 2
		out = append(out, p)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}

// packageInScope reports whether any file of pkg is covered by a's
// Applies predicate, so Run can skip whole packages cheaply.
func packageInScope(a *Analyzer, pkg *Package) bool {
	for _, f := range pkg.Files {
		if a.Applies(pkg.PkgPath, pkg.Fset.Position(f.Pos()).Filename) {
			return true
		}
	}
	return false
}
