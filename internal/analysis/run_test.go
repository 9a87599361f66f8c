package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTwoPackageModule lays out a module with one maporder violation
// per package (maporder applies everywhere, so its findings survive
// scope filtering on a non-phantom module path). Package b imports a.
func writeTwoPackageModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": "module twopkg.test\n\ngo 1.21\n",
		"a/a.go": `package a

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
		"b/b.go": `package b

import "twopkg.test/a"

func First(m map[string]int) string {
	for k := range m {
		return k
	}
	return a.Keys(m)[0]
}
`,
	})
}

// inDir chdirs into dir for the duration of the test. Tests that load
// a throwaway module share the process working directory, so none of
// them may run in parallel.
func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunSortsFindingsAcrossPackages drives the whole pipeline, Load
// then Run, over two packages: exactly one maporder finding each,
// sorted so a/a.go comes before b/b.go, and the timing hook hears
// maporder on both packages.
func TestRunSortsFindingsAcrossPackages(t *testing.T) {
	inDir(t, writeTwoPackageModule(t))
	pkgs, err := Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	timed := make(map[string]bool)
	diags := Run(Suite(), pkgs, func(pkgPath, analyzer string, _ time.Duration) {
		timed[pkgPath+" "+analyzer] = true
	})
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (one maporder finding per package): %v", len(diags), diags)
	}
	for i, file := range []string{filepath.Join("a", "a.go"), filepath.Join("b", "b.go")} {
		if d := diags[i]; d.Analyzer != MapOrder.Name || !strings.HasSuffix(d.Pos.Filename, file) {
			t.Errorf("finding %d = %v, want a maporder finding in %s", i, d, file)
		}
	}
	for _, pkg := range []string{"twopkg.test/a", "twopkg.test/b"} {
		if !timed[pkg+" "+MapOrder.Name] {
			t.Errorf("timing hook never reported maporder on %s", pkg)
		}
	}
}

// writePhantomShadowModule lays out a throwaway module NAMED phantom,
// so its package paths land inside the real analyzers' Applies scopes
// — the only way to exercise the cross-package durable map end to end
// without type-checking the actual repo in a unit test. errflow records
// store's Persist as durable (it wraps f.Sync); cluster imports store
// and discards Persist's error, which errflow sees only because store
// was analyzed first.
func writePhantomShadowModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": "module phantom\n\ngo 1.21\n",
		"internal/store/store.go": `package store

import "os"

func Persist(f *os.File) error {
	return f.Sync()
}
`,
		"internal/cluster/cluster.go": `package cluster

import (
	"os"

	"phantom/internal/store"
)

func Checkpoint(f *os.File) {
	store.Persist(f)
}
`,
	})
}

func TestCrossPackageDurableFacts(t *testing.T) {
	inDir(t, writePhantomShadowModule(t))
	pkgs, err := Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(Suite(), pkgs, nil)
	var found bool
	for _, d := range diags {
		if d.Analyzer == "errflow" && strings.Contains(d.Message, "Persist discards its error") {
			found = true
			if !strings.Contains(d.Pos.Filename, "cluster") {
				t.Errorf("durable-discard finding landed in %s, want the cluster package", d.Pos.Filename)
			}
		}
	}
	if !found {
		t.Fatalf("no errflow finding for the cross-package durable discard; got: %v", diags)
	}
}

// writeModule lays out a throwaway module from relative paths to file
// contents and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestHotAllocChecksBTB drives hotalloc end to end over a shadow module
// named phantom: the hot root (*Machine).Run calls a BTB lookup that
// allocates a set on a miss, and the finding lands in the btb package,
// so both hotalloc's scope and the call graph reach the BTB.
func TestHotAllocChecksBTB(t *testing.T) {
	inDir(t, writeModule(t, map[string]string{
		"go.mod": "module phantom\n\ngo 1.21\n",
		"internal/btb/btb.go": `package btb

type set struct{ tag uint64 }

type BTB struct{ sets map[uint32]*set }

func (b *BTB) Lookup(idx uint32) bool {
	s := b.sets[idx]
	if s == nil {
		s = new(set)
		b.sets[idx] = s
	}
	return s.tag != 0
}
`,
		"internal/pipeline/machine.go": `package pipeline

import "phantom/internal/btb"

type Machine struct{ BTB *btb.BTB }

func (m *Machine) Run(limit int) int {
	hits := 0
	for i := 0; i < limit; i++ {
		if m.BTB.Lookup(uint32(i)) {
			hits++
		}
	}
	return hits
}
`,
	}))
	pkgs, err := Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Analyzer{HotAlloc}, pkgs, nil)
	if len(diags) != 1 || !strings.HasSuffix(diags[0].Pos.Filename, filepath.Join("internal", "btb", "btb.go")) ||
		!strings.Contains(diags[0].Message, "new(...)") {
		t.Fatalf("got %v, want one hotalloc finding for the new(set) in internal/btb/btb.go", diags)
	}
}
