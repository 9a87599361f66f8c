package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Standard   bool // in the standard library
	DepOnly    bool // listed only as a dependency of a matched package
}

// stdlib is the one file set and source importer every Load in the
// process shares. The importer caches each standard-library package it
// type-checks, and the standard library does not change within a
// process, so a later Load (a test binary's next fixture, say)
// type-checks none of it again. Module packages never go through it:
// Load checks them itself, so two modules that reuse a path (throwaway
// test modules named phantom) never see each other's packages. mu
// serializes Loads, because the importer is not safe for concurrent
// use.
var stdlib struct {
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.ImporterFrom
}

// loadImporter resolves a Load's module packages to the ones it checked
// and everything else, the standard library, through stdlib.
type loadImporter map[string]*types.Package

func (li loadImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li loadImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := li[path]; p != nil {
		return p, nil
	}
	return stdlib.imp.ImportFrom(path, dir, mode)
}

// Load expands the given `go list` patterns (./..., package paths, or
// directories) and returns each matched package parsed and
// type-checked from source. Test files are excluded: the invariants
// phantom-vet enforces are about what ships in the simulator, and
// tests legitimately use time.Now, os.Stdout capture, etc. Each
// package's LoadTime records how long its parse and type-check took.
//
// `go list -deps` orders the packages dependencies first, so each
// module package is checked once, against the already-checked packages
// it imports. The standard library is resolved with the standard
// library's "source" importer, shared by every Load (stdlib), so the
// loader needs no compiled export data and no third-party machinery —
// only the go toolchain for pattern expansion. Cgo is disabled for the
// build context: the net/os packages type-check via their pure-Go
// fallbacks, which is all the analyzers need.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	stdlib.mu.Lock()
	defer stdlib.mu.Unlock()
	if stdlib.imp == nil {
		build.Default.CgoEnabled = false
		stdlib.fset = token.NewFileSet()
		stdlib.imp = importer.ForCompiler(stdlib.fset, "source", nil).(types.ImporterFrom)
	}
	imp := make(loadImporter)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		start := time.Now()
		pkg, err := checkPackage(stdlib.fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.LoadTime = time.Since(start)
		imp[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// goList shells out to `go list -json` for pattern expansion — the one
// part of package loading not worth reimplementing, since build
// constraints, module resolution, and pattern syntax all live in the
// go command.
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-json=Dir,ImportPath,GoFiles,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := bytes.TrimSpace(stderr.Bytes())
		if len(msg) == 0 {
			msg = []byte(err.Error())
		}
		return nil, fmt.Errorf("go list %v: %s", patterns, msg)
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*Package, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: type checking: %v", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
