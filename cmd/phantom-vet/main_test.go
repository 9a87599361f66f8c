package main

import (
	"bytes"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"phantom/internal/analysis"
)

// TestExitCodes pins the CLI convention shared by all five binaries:
// 0 success, 1 runtime error (including findings), 2 usage error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list analyzers", []string{"-list"}, 0},
		{"clean package", []string{"phantom/internal/gf2"}, 0},
		{"seeded violation", []string{"../../internal/analysis/testdata/src/maporder/bad"}, 1},
		{"unknown package", []string{"phantom/internal/not-a-package"}, 1},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"no packages", nil, 2},
		{"unknown analyzer", []string{"-run", "nope", "./..."}, 2},
		{"empty analyzer list", []string{"-run", ",", "./..."}, 2},
	}
	for _, c := range cases {
		if got := realMain(c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: realMain(%v) = %d, want %d", c.name, c.args, got, c.want)
		}
	}
}

// TestSeededViolationOutput drives the gate end to end on a fixture
// with known violations: findings on stdout with positions and
// analyzer names, a count on stderr, exit 1. This is the behaviour
// `make check` relies on to fail the build.
func TestSeededViolationOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"../../internal/analysis/testdata/src/maporder/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"bad.go:", "(maporder)", "random order"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing the findings count: %s", stderr.String())
	}
}

// TestRunSubset checks -run restricts the suite: the maporder fixture
// also violates noperturb (it prints inside the loop), but a
// -run=hotalloc pass must stay silent on it.
func TestRunSubset(t *testing.T) {
	var stdout bytes.Buffer
	code := realMain([]string{"-run", "hotalloc", "../../internal/analysis/testdata/src/maporder/bad"}, &stdout, io.Discard)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected findings: %s", stdout.String())
	}

	stdout.Reset()
	code = realMain([]string{"-run", "noperturb,maporder", "../../internal/analysis/testdata/src/maporder/bad"}, &stdout, io.Discard)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "(noperturb)") || !strings.Contains(stdout.String(), "(maporder)") {
		t.Errorf("expected both analyzers in output:\n%s", stdout.String())
	}
}

// TestVerboseReport drives -v on a stdlib-only package: stderr gets
// the package count, a load/analyze line for the package, and one
// line per analyzer whose scope covers it, and nothing about a cache.
func TestVerboseReport(t *testing.T) {
	var stderr bytes.Buffer
	if code := realMain([]string{"-v", "phantom/internal/gf2"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit = %d\n%s", code, stderr.String())
	}
	report := stderr.String()
	if !strings.Contains(report, "phantom-vet: 1 package(s), wall ") {
		t.Errorf("-v report missing the package count:\n%s", report)
	}
	if !regexp.MustCompile(`(?m)^  phantom/internal/gf2 +load \S+, analyze \S+$`).MatchString(report) {
		t.Errorf("-v report missing gf2's load/analyze line:\n%s", report)
	}
	for _, a := range analysis.Suite() {
		// unusedignore only checks, after the others ran, which
		// directives they left unused; it is not timed on its own.
		ran := a != analysis.UnusedIgnore && (a.Applies == nil || a.Applies("phantom/internal/gf2", "gf2.go"))
		line := regexp.MustCompile(`(?m)^  analyzer ` + a.Name + ` +\S+$`)
		if got := line.MatchString(report); got != ran {
			t.Errorf("-v analyzer line for %s: present = %v, want %v\n%s", a.Name, got, ran, report)
		}
	}
	if strings.Contains(report, "cache") {
		t.Errorf("-v report mentions a cache:\n%s", report)
	}
}

// TestFixtureMode pins the CLI face of the fixture harness: -fixture
// runs the raw rule on a testdata package directory, ignoring Applies
// scopes. lockcheck's scope excludes testdata paths, so without
// -fixture its seeded bad fixture exits 0 — CI's per-analyzer
// seeded-violation gate depends on -fixture seeing through that.
func TestFixtureMode(t *testing.T) {
	var stdout bytes.Buffer
	code := realMain([]string{"-fixture", "-run", "lockcheck",
		"../../internal/analysis/testdata/src/lockcheck/bad"}, &stdout, io.Discard)
	if code != 1 {
		t.Fatalf("bad fixture: exit = %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "(lockcheck)") {
		t.Errorf("expected lockcheck findings:\n%s", stdout.String())
	}

	// The same analyzer through the scoped Load+Run path stays silent
	// on the same directory — the contrast -fixture exists to resolve.
	stdout.Reset()
	code = realMain([]string{"-run", "lockcheck",
		"../../internal/analysis/testdata/src/lockcheck/bad"}, &stdout, io.Discard)
	if code != 0 || stdout.Len() != 0 {
		t.Errorf("scoped run: exit = %d, findings %q; want 0 and none", code, stdout.String())
	}

	// ok fixtures stay clean, and a nonexistent directory is a runtime
	// error (exit 1), not a silent pass.
	if code := realMain([]string{"-fixture", "-run", "lockcheck",
		"../../internal/analysis/testdata/src/lockcheck/ok"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("ok fixture: exit = %d, want 0", code)
	}
	if code := realMain([]string{"-fixture", "no/such/dir"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("missing dir: exit = %d, want 1", code)
	}
}

// TestListDescribesEveryAnalyzer keeps -list in sync with the suite.
func TestListDescribesEveryAnalyzer(t *testing.T) {
	var stdout bytes.Buffer
	if code := realMain([]string{"-list"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range analysis.Suite() {
		if !strings.Contains(stdout.String(), a.Name+" ") {
			t.Errorf("-list missing %s", a.Name)
		}
	}
}

// TestFixtureExitCodes is the seeded-violation gate CI runs over the
// -list output, one analyzer at a time: -fixture -run <name> exits 1
// on the analyzer's bad fixture (0 would mean the gate is asleep, 2 a
// misconfigured fixture) and 0 on its ok fixture.
func TestFixtureExitCodes(t *testing.T) {
	for _, a := range analysis.Suite() {
		dir := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", a.Name)
		for _, c := range []struct {
			kind string
			want int
		}{{"bad", 1}, {"ok", 0}} {
			args := []string{"-fixture", "-run", a.Name, filepath.Join(dir, c.kind)}
			if got := realMain(args, io.Discard, io.Discard); got != c.want {
				t.Errorf("%s %s fixture: exit = %d, want %d", a.Name, c.kind, got, c.want)
			}
		}
	}
}
