package analysis

import (
	"fmt"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

// This file is the fixture harness: the stdlib-only analogue of
// golang.org/x/tools/go/analysis/analysistest. A fixture is one
// package directory under testdata/src whose files annotate expected
// findings with trailing comments:
//
//	t := time.Now() // want "wall clock"
//
// Each `want` string is a regexp that must match the message of a
// diagnostic reported on that line; every diagnostic must be matched
// by exactly one expectation and vice versa. A fixture with no want
// comments is a negative case: the analyzer must stay silent on it.

// TestingT is the fragment of *testing.T the harness needs, split out
// so the harness itself is testable.
type TestingT interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

// expectation is one `// want "re"` annotation.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// RunFixture runs a on the loaded fixture package pkg (see AnalyzeDir)
// and compares the diagnostics against the fixture's want
// annotations.
func RunFixture(t TestingT, a *Analyzer, pkg *Package) {
	t.Helper()
	expects, err := parseExpectations(pkg)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkg.PkgPath, err)
	}
	name := path.Base(pkg.PkgPath)
	for _, d := range analyzeFixture([]*Analyzer{a}, pkg) {
		if !claimExpectation(expects, d) {
			t.Errorf("%s: unexpected diagnostic: %s", name, d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s: %s:%d: expected a diagnostic matching %q, got none",
				name, filepath.Base(e.file), e.line, e.re)
		}
	}
}

// AnalyzeDir loads the single package in dir through Load and returns
// the findings of the selected analyzers' raw rules on it, with
// phantomvet:ignore directives honoured.
func AnalyzeDir(selected []*Analyzer, dir string) ([]Diagnostic, error) {
	// go list reads a pattern as a directory only when it is rooted or
	// starts with . or ..; testdata is invisible to ./... on purpose,
	// but an explicit directory loads like any other package.
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := Load([]string{abs})
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		// Load skips a directory whose only Go files are tests; as a
		// fixture that is broken, not clean.
		return nil, fmt.Errorf("%s: no non-test Go files", dir)
	}
	return analyzeFixture(selected, pkgs[0]), nil
}

// analyzeFixture runs copies of the selected analyzers with a nil
// Applies over pkg, so fixtures exercise the raw rules, and keeps the
// selected analyzers' findings. The dead-suppression check is defined
// over a whole suite run: a directive is unused only if the analyzer it
// names ran and stayed silent. Selecting unusedignore therefore runs
// the whole suite.
func analyzeFixture(selected []*Analyzer, pkg *Package) []Diagnostic {
	suite := selected
	keep := make(map[string]bool)
	for _, a := range selected {
		keep[a.Name] = true
		if a.Name == UnusedIgnore.Name {
			suite = Suite()
		}
	}
	raw := make([]*Analyzer, len(suite))
	for i, a := range suite {
		c := *a
		c.Applies = nil
		raw[i] = &c
	}
	var out []Diagnostic
	for _, d := range Run(raw, []*Package{pkg}, nil) {
		if keep[d.Analyzer] {
			out = append(out, d)
		}
	}
	return out
}

// parseExpectations reads the want annotations from the fixture's
// comments.
func parseExpectations(pkg *Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := splitWantPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, re := range res {
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

// splitWantPatterns parses the payload of a want comment: one or more
// double-quoted regexps.
func splitWantPatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		if s[0] != '"' {
			return nil, fmt.Errorf("want payload must be double-quoted regexps, got %q", s)
		}
		end := strings.Index(s[1:], `"`)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		re, err := regexp.Compile(s[1 : 1+end])
		if err != nil {
			return nil, fmt.Errorf("bad want pattern: %v", err)
		}
		out = append(out, re)
		s = s[end+2:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment carries no patterns")
	}
	return out, nil
}

// claimExpectation marks the first unmatched expectation on d's line
// whose pattern matches d's message.
func claimExpectation(expects []*expectation, d Diagnostic) bool {
	for _, e := range expects {
		if e.matched || e.line != d.Pos.Line || filepath.Base(e.file) != filepath.Base(d.Pos.Filename) {
			continue
		}
		if e.re.MatchString(d.Message) {
			e.matched = true
			return true
		}
	}
	return false
}
