package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestSuiteNamesAndLookup(t *testing.T) {
	want := []string{"determinism", "maporder", "noperturb", "ctxflow", "faultalloc",
		"lockcheck", "errflow", "goleak", "hotalloc", "unusedignore"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
		if a.Applies == nil {
			t.Errorf("%s: nil Applies scope", a.Name)
		}
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the suite analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of an unknown analyzer returned non-nil")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "determinism",
		Pos:      token.Position{Filename: "machine.go", Line: 7, Column: 3},
		Message:  "time.Now reads the wall clock",
	}
	want := "machine.go:7:3: time.Now reads the wall clock (determinism)"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestIgnoreDirectives(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //phantomvet:ignore maporder keys re-sorted by the caller
	//phantomvet:ignore determinism,ctxflow seeded upstream
	_ = 2
	//phantomvet:ignore all generated code
	_ = 3
	// a comment merely mentioning phantomvet suppresses nothing
}
`)
	ds := parseDirectives(fset, files)
	cases := []struct {
		line int
		name string
		want bool
	}{
		{4, "maporder", true},
		{4, "determinism", false}, // directives name their analyzer
		{5, "determinism", true},
		{6, "determinism", true}, // directive covers the next line too
		{6, "ctxflow", true},
		{6, "maporder", false},
		{8, "maporder", true},  // "all" covers any analyzer
		{9, "maporder", false}, // prose is not a directive
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: c.name, Pos: token.Position{Filename: "p.go", Line: c.line}}
		if got := ds.suppresses(d); got != c.want {
			t.Errorf("line %d name %q: suppressed=%v, want %v", c.line, c.name, got, c.want)
		}
	}
}

// TestUnusedDirectives pins the dead-suppression report: a directive
// whose analyzer ran and fired is silent, one whose analyzer ran clean
// is reported, one naming an unknown analyzer is always reported, and
// one whose analyzer was not part of the run is left alone.
func TestUnusedDirectives(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	_ = 1 //phantomvet:ignore maporder fired below
	_ = 2 //phantomvet:ignore determinism ran clean
	_ = 3 //phantomvet:ignore nosuchvet typo
	_ = 4 //phantomvet:ignore ctxflow not in this run
}
`)
	ds := parseDirectives(fset, files)
	// Simulate the run: maporder fired on line 4, determinism ran but
	// found nothing, ctxflow did not run at all.
	if !ds.suppresses(Diagnostic{Analyzer: "maporder", Pos: token.Position{Filename: "p.go", Line: 4}}) {
		t.Fatalf("maporder directive did not suppress")
	}
	diags := ds.unusedDiags(map[string]bool{"maporder": true, "determinism": true})
	var lines []int
	for _, d := range diags {
		if d.Analyzer != UnusedIgnore.Name {
			t.Errorf("unused diag attributed to %q, want %q", d.Analyzer, UnusedIgnore.Name)
		}
		lines = append(lines, d.Pos.Line)
	}
	want := []int{5, 6} // dead determinism ignore + unknown name; 4 used, 7 not judged
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Errorf("unused directive lines = %v, want %v", lines, want)
	}
}

// TestSuppressionFiltersDiagnostics runs a real analyzer over source
// with a directive and checks the finding is dropped end to end.
func TestSuppressionFiltersDiagnostics(t *testing.T) {
	for _, d := range analyzeFixture([]*Analyzer{MapOrder}, fixture(t, "maporder", "ok")) {
		t.Errorf("suppressed fixture still produced: %s", d)
	}
}

func TestScopes(t *testing.T) {
	cases := []struct {
		a        *Analyzer
		pkgPath  string
		filename string
		want     bool
	}{
		{Determinism, "phantom/internal/pipeline", "machine.go", true},
		{Determinism, "phantom/internal/stats", "stats.go", true},
		{Determinism, "phantom/internal/search", "generate.go", true},
		{Determinism, "phantom", "experiments.go", true},
		{Determinism, "phantom", "report.go", false},
		{Determinism, "phantom/internal/telemetry", "hub.go", false},
		{Determinism, "phantom/internal/sweep", "sweep.go", false},
		{Determinism, "phantom/cmd/phantom", "main.go", false},

		{MapOrder, "phantom", "report.go", true},
		{MapOrder, "phantom/internal/telemetry", "debug.go", true},
		{MapOrder, "phantom/cmd/phantom", "main.go", true},

		{NoPerturb, "phantom/internal/pipeline", "machine.go", true},
		{NoPerturb, "phantom/internal/service", "exec.go", true},
		{NoPerturb, "phantom", "experiments.go", true},
		{NoPerturb, "phantom", "report.go", false},
		{NoPerturb, "phantom/internal/telemetry", "progress.go", false},
		{NoPerturb, "phantom/internal/telemetry", "hub.go", true},
		{NoPerturb, "phantom/cmd/phantom-vet", "main.go", false},
		{NoPerturb, "phantom/examples/quickstart", "main.go", false},
		{NoPerturb, "phantom/internal/tools/servesmoke", "main.go", false},

		{CtxFlow, "phantom/internal/service", "coalesce.go", true},
		{CtxFlow, "phantom/internal/sweep", "sweep.go", true},
		{CtxFlow, "phantom/cmd/phantom-server", "main.go", false},
		{CtxFlow, "phantom", "experiments.go", true},
		{CtxFlow, "phantom/internal/core", "env.go", true},
		{CtxFlow, "phantom/internal/kernel", "kernel.go", false},

		{FaultAlloc, "phantom/internal/mem", "mem.go", true},
		{FaultAlloc, "phantom/internal/pipeline", "predecode.go", true},
		{FaultAlloc, "phantom/internal/service", "server.go", false},
	}
	for _, c := range cases {
		if got := c.a.Applies(c.pkgPath, c.filename); got != c.want {
			t.Errorf("%s.Applies(%q, %q) = %v, want %v", c.a.Name, c.pkgPath, c.filename, got, c.want)
		}
	}
}

func TestSplitWantPatterns(t *testing.T) {
	res, err := splitWantPatterns(`"wall clock" "seeded"`)
	if err != nil || len(res) != 2 {
		t.Fatalf("got %v, %v; want two patterns", res, err)
	}
	if !res[0].MatchString("time.Now reads the wall clock") {
		t.Error("first pattern does not match")
	}
	for _, bad := range []string{"", "unquoted", `"unterminated`, `"("`} {
		if _, err := splitWantPatterns(bad); err == nil {
			t.Errorf("splitWantPatterns(%q): expected error", bad)
		}
	}
}

// failRecorder captures harness failures so the harness itself can be
// tested against deliberately mismatched fixtures.
type failRecorder struct {
	errors []string
	fatal  string
}

func (r *failRecorder) Helper() {}
func (r *failRecorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *failRecorder) Fatalf(format string, args ...any) {
	r.fatal = fmt.Sprintf(format, args...)
	panic(r)
}

func runFixtureRecovering(a *Analyzer, pkg *Package) (rec *failRecorder) {
	rec = &failRecorder{}
	defer func() {
		if p := recover(); p != nil && p != any(rec) {
			panic(p)
		}
	}()
	RunFixture(rec, a, pkg)
	return rec
}

func TestHarnessReportsMismatches(t *testing.T) {
	// Running the wrong analyzer over an annotated fixture must fail
	// both ways: its want comments go unmatched, and (for a fixture
	// that also violates the wrong analyzer's rule) diagnostics arrive
	// unexpected.
	rec := runFixtureRecovering(CtxFlow, fixture(t, "determinism", "bad"))
	if len(rec.errors) == 0 {
		t.Fatal("harness accepted a fixture whose want comments matched nothing")
	}
	for _, e := range rec.errors {
		if !strings.Contains(e, "expected a diagnostic") {
			t.Errorf("unexpected error kind: %s", e)
		}
	}

	rec = runFixtureRecovering(NoPerturb, fixture(t, "maporder", "bad"))
	var unexpected bool
	for _, e := range rec.errors {
		if strings.Contains(e, "unexpected diagnostic") {
			unexpected = true
		}
	}
	if !unexpected {
		t.Error("harness did not report the wrong analyzer's extra diagnostics")
	}
}

// TestHarnessRejectsBrokenFixture pins that a fixture the harness
// cannot read fails instead of passing vacuously: a missing directory
// is an AnalyzeDir error, and a malformed want comment is fatal to
// RunFixture.
func TestHarnessRejectsBrokenFixture(t *testing.T) {
	if _, err := AnalyzeDir([]*Analyzer{Determinism}, filepath.Join("testdata", "src", "does", "not", "exist")); err == nil {
		t.Error("AnalyzeDir accepted a missing fixture directory")
	}
	fset, files := parseOne(t, "package p\n\nvar x = 1 // want unquoted\n")
	rec := runFixtureRecovering(Determinism, &Package{PkgPath: "p", Fset: fset, Files: files})
	if rec.fatal == "" {
		t.Error("harness accepted a fixture whose want comment is malformed")
	}
}
