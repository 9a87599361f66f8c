package analysis

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Each analyzer gets a flagging (bad) and a non-flagging (ok) fixture
// package. The bad fixtures annotate every expected diagnostic with a
// // want "regexp" comment; the ok fixtures must produce none.
var fixtures struct {
	once  sync.Once
	byDir map[string]*Package // by path below testdata/src
	err   error
}

// fixture returns the loaded fixture package testdata/src/<name>/<kind>.
// The first call loads every fixture in one Load, so one `go list`
// serves all of them.
func fixture(t *testing.T, name, kind string) *Package {
	t.Helper()
	fixtures.once.Do(func() {
		dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*", "*"))
		if err != nil {
			fixtures.err = err
			return
		}
		for i, dir := range dirs {
			dirs[i] = "./" + filepath.ToSlash(dir)
		}
		pkgs, err := Load(dirs)
		if err != nil {
			fixtures.err = err
			return
		}
		fixtures.byDir = make(map[string]*Package, len(pkgs))
		for _, p := range pkgs {
			fixtures.byDir[strings.TrimPrefix(p.PkgPath, "phantom/internal/analysis/testdata/src/")] = p
		}
	})
	if fixtures.err != nil {
		t.Fatal(fixtures.err)
	}
	pkg := fixtures.byDir[name+"/"+kind]
	if pkg == nil {
		t.Fatalf("no fixture package testdata/src/%s/%s", name, kind)
	}
	return pkg
}

// TestAnalyzerFixtures runs every analyzer in the suite on its own
// testdata/src/<name>/bad and ok fixtures. A missing fixture directory
// fails the subtest, so a new analyzer cannot join the suite untested.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Suite() {
		t.Run(a.Name, func(t *testing.T) {
			RunFixture(t, a, fixture(t, a.Name, "bad"))
			RunFixture(t, a, fixture(t, a.Name, "ok"))
		})
	}
}

// TestCrossAnalyzerSilence pins that analyzers do not fire on each
// other's fixtures where the invariants do not overlap: the
// determinism fixtures never print, the noperturb fixtures never read
// clocks, and nothing outside the ctxflow fixtures minds contexts.
func TestCrossAnalyzerSilence(t *testing.T) {
	cases := []struct {
		a       *Analyzer
		fixture string
	}{
		{Determinism, "noperturb"},
		{Determinism, "ctxflow"},
		{Determinism, "hotalloc"},
		{NoPerturb, "determinism"},
		{NoPerturb, "ctxflow"},
		{CtxFlow, "determinism"},
		{CtxFlow, "hotalloc"},
		{HotAlloc, "determinism"},
		{HotAlloc, "maporder"},
		{MapOrder, "determinism"},
		{MapOrder, "hotalloc"},
	}
	for _, c := range cases {
		for _, d := range analyzeFixture([]*Analyzer{c.a}, fixture(t, c.fixture, "bad")) {
			t.Errorf("%s fired on the %s bad fixture: %s", c.a.Name, c.fixture, d)
		}
	}
}
