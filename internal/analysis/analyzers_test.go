package analysis

import (
	"path/filepath"
	"testing"
)

// Each analyzer gets a flagging (bad) and a non-flagging (ok) fixture
// package. The bad fixtures annotate every expected diagnostic with a
// // want "regexp" comment; the ok fixtures must produce none.
func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

// TestAnalyzerFixtures runs every analyzer in the suite on its own
// testdata/src/<name>/bad and ok fixtures. A missing fixture directory
// fails the subtest, so a new analyzer cannot join the suite untested.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Suite() {
		t.Run(a.Name, func(t *testing.T) {
			RunFixture(t, a, fixture(a.Name, "bad"))
			RunFixture(t, a, fixture(a.Name, "ok"))
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
		{Determinism, fixture("noperturb", "bad")},
		{Determinism, fixture("ctxflow", "bad")},
		{Determinism, fixture("faultalloc", "bad")},
		{NoPerturb, fixture("determinism", "bad")},
		{NoPerturb, fixture("ctxflow", "bad")},
		{CtxFlow, fixture("determinism", "bad")},
		{CtxFlow, fixture("faultalloc", "bad")},
		{FaultAlloc, fixture("determinism", "bad")},
		{FaultAlloc, fixture("maporder", "bad")},
		{MapOrder, fixture("determinism", "bad")},
		{MapOrder, fixture("faultalloc", "bad")},
	}
	for _, c := range cases {
		diags, _, err := AnalyzeDir(c.a, c.fixture)
		if err != nil {
			t.Fatalf("%s on %s: %v", c.a.Name, c.fixture, err)
		}
		for _, d := range diags {
			t.Errorf("%s fired on %s: %s", c.a.Name, c.fixture, d)
		}
	}
}
