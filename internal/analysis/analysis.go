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
	// given package path and file. Run consults it for real
	// packages; the fixture harness ignores it so testdata can
	// exercise the raw rule. A nil Applies means "everywhere".
	Applies func(pkgPath, filename string) bool

	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one package's syntax and type information through an
// Analyzer.Run invocation, plus the flow engine's shared state: lazy
// per-function CFGs, the cross-package fact store, and the hot set Run
// derived from the whole-repo call graph.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts exposes the exported facts of already-analyzed packages
	// (dependencies, under Run's ordering). Nil in isolated
	// fixture runs.
	Facts *FactStore

	// OwnFacts is where this package's analyzers export facts for
	// their importers. Nil in isolated fixture runs.
	OwnFacts *PackageFacts

	// Hot holds the FullNames of this package's functions that the
	// whole-repo call graph marks reachable from the hot roots. Nil
	// when no global graph exists (fixtures, single-package runs);
	// hotalloc then falls back to intra-package reachability from
	// annotated roots.
	Hot map[string]bool

	pkg   *Package
	diags []Diagnostic
}

// CFG returns the (lazily built) control-flow graph of fn, which must
// be an *ast.FuncDecl or *ast.FuncLit. The cache lives on the Package,
// so the suite builds each function's graph at most once per package
// no matter how many analyzers consult it.
func (p *Pass) CFG(fn ast.Node) *CFG {
	if p.pkg == nil {
		return BuildCFG(fn)
	}
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
	// package (zero for fixture packages).
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
// diagnostics with phantomvet:ignore suppressions already removed
// (marking the directives used) and positions sorted. When scoped is
// true, diagnostics in files outside a.Applies are dropped
// (package-level applicability is the caller's concern; file-level is
// handled here because only the diagnostic knows its file).
func runOne(a *Analyzer, pkg *Package, scoped bool, ds *directiveSet, facts *FactStore, own *PackageFacts, hot map[string]bool) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Facts:    facts,
		OwnFacts: own,
		Hot:      hot,
		pkg:      pkg,
	}
	a.Run(pass)
	if ds == nil {
		ds = parseDirectives(pkg.Fset, pkg.Files)
	}
	var out []Diagnostic
	for _, d := range pass.diags {
		if ds.suppresses(d) {
			continue
		}
		if scoped && a.Applies != nil && !a.Applies(pkg.PkgPath, d.Pos.Filename) {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
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

// Run applies every analyzer in the suite to every package with full
// cross-package fact propagation and hot-set derivation, and returns
// the combined findings sorted by position: summaries first (so the
// whole-repo call graph and hot set exist before any checking analyzer
// runs), then per-package analysis in dependency order (so facts only
// ever flow along the import DAG). timing, when non-nil, receives each
// analyzer's wall time on each package.
func Run(suite []*Analyzer, pkgs []*Package, timing func(pkgPath, analyzer string, d time.Duration)) []Diagnostic {
	ordered := topoSort(pkgs)
	facts := NewFactStore()
	summaries := make(map[string]*PackageFacts, len(ordered))
	for _, pkg := range ordered {
		summaries[pkg.PkgPath] = summarizePackage(pkg)
	}
	hot := BuildCallGraph(summaries).Reachable(HotRoots)
	var out []Diagnostic
	for _, pkg := range ordered {
		out = append(out, AnalyzePackage(suite, pkg, facts, summaries[pkg.PkgPath], hotIn(hot, summaries[pkg.PkgPath]), timing)...)
	}
	sortDiagnostics(out)
	return out
}

// hotIn restricts the global hot set to the functions a package
// declares (the keys of its call summary).
func hotIn(hot map[string]bool, summary *PackageFacts) map[string]bool {
	out := make(map[string]bool)
	for name := range summary.Funcs {
		if hot[name] {
			out[name] = true
		}
	}
	return out
}

// AnalyzePackage runs the suite over one loaded package: checking
// analyzers (with dep facts and the package's hot set), suppression
// filtering, and — when the suite includes unusedignore — the dead-
// suppression check over everything that ran. The package's exported
// facts land in facts (seeded with summary) for its importers. timing,
// when non-nil, receives each analyzer's wall time on the package.
func AnalyzePackage(suite []*Analyzer, pkg *Package, facts *FactStore, summary *PackageFacts, hot map[string]bool, timing func(pkgPath, analyzer string, d time.Duration)) []Diagnostic {
	if summary == nil {
		summary = summarizePackage(pkg)
	}
	own := summary // durable facts accrete onto the call summary
	ds := parseDirectives(pkg.Fset, pkg.Files)
	ran := make(map[string]bool)
	var out []Diagnostic
	unusedCheck := false
	for _, a := range suite {
		if a == UnusedIgnore {
			unusedCheck = true
			continue
		}
		ran[a.Name] = true
		if a.Applies != nil && !packageInScope(a, pkg) {
			continue
		}
		start := time.Now()
		out = append(out, runOne(a, pkg, true, ds, facts, own, hot)...)
		if timing != nil {
			timing(pkg.PkgPath, a.Name, time.Since(start))
		}
	}
	if unusedCheck {
		out = append(out, ds.unusedDiags(ran)...)
	}
	if facts != nil {
		facts.Set(pkg.PkgPath, own)
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
