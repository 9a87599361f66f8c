package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
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

// RunFixture loads the fixture package at dir (one package, no test
// files), runs a on it with phantomvet:ignore suppression applied,
// and compares the diagnostics against the fixture's want
// annotations.
func RunFixture(t TestingT, a *Analyzer, dir string) {
	t.Helper()
	diags, fset, err := AnalyzeDir(a, dir)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	expects, err := parseExpectations(fset, dir)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, d := range diags {
		if !claimExpectation(expects, d) {
			t.Errorf("%s: unexpected diagnostic: %s", filepath.Base(dir), d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s: %s:%d: expected a diagnostic matching %q, got none",
				filepath.Base(dir), filepath.Base(e.file), e.line, e.re)
		}
	}
}

// AnalyzeDir parses and type-checks the single package in dir and runs
// a over it, ignoring a.Applies (fixtures exercise the raw rule) but
// honouring phantomvet:ignore directives.
func AnalyzeDir(a *Analyzer, dir string) ([]Diagnostic, *token.FileSet, error) {
	fset := token.NewFileSet()
	name, files, err := parseDir(fset, dir)
	if err != nil {
		return nil, nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type checking: %v", err)
	}
	pkg := &Package{PkgPath: name, Fset: fset, Files: files, Types: tpkg, Info: info}
	if a == UnusedIgnore {
		// The dead-suppression check is defined over a whole suite run:
		// a directive is unused only if the analyzer it names ran and
		// stayed silent. Its fixtures therefore run everything and
		// report only the unusedignore findings.
		all := AnalyzePackage(Suite(), pkg, nil, nil, nil, nil)
		var out []Diagnostic
		for _, d := range all {
			if d.Analyzer == UnusedIgnore.Name {
				out = append(out, d)
			}
		}
		return out, fset, nil
	}
	return runOne(a, pkg, false, nil, nil, newPackageFacts(), nil), fset, nil
}

// parseExpectations re-reads the fixture's comments for want
// annotations. It reuses the already-parsed comment lists via a fresh
// parse of the directory, which keeps the harness independent of how
// AnalyzeDir ran.
func parseExpectations(fset *token.FileSet, dir string) ([]*expectation, error) {
	efset := token.NewFileSet()
	_, files, err := parseDir(efset, dir)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := efset.Position(c.Pos())
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
