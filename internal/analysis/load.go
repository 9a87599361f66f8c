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
	"time"
)

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// Load expands the given `go list` patterns (./..., package paths, or
// directories) and returns each matched package parsed and
// type-checked from source. Test files are excluded: the invariants
// phantom-vet enforces are about what ships in the simulator, and
// tests legitimately use time.Now, os.Stdout capture, etc. Each
// package's LoadTime records how long its parse and type-check took.
//
// Type information is resolved with the standard library's "source"
// importer, so the loader needs no compiled export data and no
// third-party machinery — only the go toolchain for pattern
// expansion. Cgo is disabled for the build context: the net/os
// packages type-check via their pure-Go fallbacks, which is all the
// analyzers need.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	// One file set and one importer across all packages: the source
	// importer caches each stdlib package it type-checks, which is
	// what keeps a ./... run to seconds rather than minutes.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		start := time.Now()
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.LoadTime = time.Since(start)
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList shells out to `go list -json` for pattern expansion — the one
// part of package loading not worth reimplementing, since build
// constraints, module resolution, and pattern syntax all live in the
// go command.
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles", "--"}, patterns...)
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
