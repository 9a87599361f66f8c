package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadTypeChecksModulePackage loads a real module package through
// the go list + source-importer pipeline and sanity-checks the result
// carries syntax, types, and resolved uses.
func TestLoadTypeChecksModulePackage(t *testing.T) {
	pkgs, err := Load([]string{"phantom/internal/gf2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.PkgPath != "phantom/internal/gf2" {
		t.Errorf("PkgPath = %q", p.PkgPath)
	}
	if len(p.Files) == 0 {
		t.Error("no files loaded")
	}
	if p.Types == nil || p.Types.Name() != "gf2" {
		t.Errorf("types package = %v", p.Types)
	}
	if len(p.Info.Uses) == 0 {
		t.Error("no uses resolved; analyzers would be blind")
	}
	if p.LoadTime <= 0 {
		t.Errorf("LoadTime = %v, want the parse and type-check time", p.LoadTime)
	}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s loaded; invariants only cover shipped code", name)
		}
	}
}

// TestLoadRunsSuiteOnIntraModuleImports loads a package that imports
// other module packages (sweep imports telemetry), exercising the
// source importer's module resolution.
func TestLoadRunsSuiteOnIntraModuleImports(t *testing.T) {
	pkgs, err := Load([]string{"phantom/internal/sweep"})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(Suite(), pkgs, nil)
	for _, d := range diags {
		t.Errorf("clean package produced: %s", d)
	}
}

func TestLoadBadPattern(t *testing.T) {
	if _, err := Load([]string{"phantom/internal/definitely-not-here"}); err == nil {
		t.Fatal("expected an error for an unknown package")
	}
}

// writeLoadErrorModule lays out a module whose packages each trip one
// loader error path: a syntax error, an unresolvable import, a
// directory with no Go files at all, one with two packages, and one
// with only test files.
func writeLoadErrorModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module loaderr.test\n\ngo 1.21\n")
	write("syntax/syntax.go", "package syntax\n\nfunc broken( {}\n")
	write("badimport/badimport.go", "package badimport\n\nimport \"no/such/module/anywhere\"\n\nvar _ = anywhere.X\n")
	write("empty/README.txt", "no Go files here\n")
	write("twopkg/a.go", "package a\n")
	write("twopkg/b.go", "package b\n")
	write("testonly/x_test.go", "package x\n")
	return root
}

// TestLoadUnparsableFile pins that a syntax error surfaces as a Load
// error naming the package, not a panic or a silently skipped file.
func TestLoadUnparsableFile(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	_, err := Load([]string{"./syntax"})
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if !strings.Contains(err.Error(), "syntax") {
		t.Errorf("error does not name the package: %v", err)
	}
}

// TestLoadMissingImport pins the type-check error path: an import the
// source importer cannot resolve fails the load with a type-checking
// error rather than producing a half-typed package the analyzers
// would mis-judge.
func TestLoadMissingImport(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	_, err := Load([]string{"./badimport"})
	if err == nil {
		t.Fatal("expected a type-check error")
	}
	if !strings.Contains(err.Error(), "badimport") {
		t.Errorf("error does not name the package: %v", err)
	}
}

// TestLoadEmptyPackage pins the no-Go-files path: `go list` rejects
// the directory, and the pattern error propagates.
func TestLoadEmptyPackage(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	_, err := Load([]string{"./empty"})
	if err == nil {
		t.Fatal("expected an error for a directory without Go files")
	}
}

// TestParseDirRejectsMultiplePackages pins the fixture-harness loader
// error paths: a fixture directory holding two package clauses, or
// only test files, is a broken fixture, not a clean one.
func TestParseDirRejectsMultiplePackages(t *testing.T) {
	inDir(t, writeLoadErrorModule(t))
	for _, dir := range []string{"twopkg", "testonly"} {
		if _, err := AnalyzeDir([]*Analyzer{Determinism}, dir); err == nil {
			t.Errorf("AnalyzeDir(%s): expected an error for a broken fixture dir", dir)
		}
	}
}
