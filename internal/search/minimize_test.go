package search

import (
	"context"
	"errors"
	"testing"
)

// findOne runs a small search until it surfaces a finding of cat and
// returns the *unminimized* program that produced it.
func findOne(t *testing.T, arch string, cat Category) *Program {
	t.Helper()
	for it := 0; it < 2000; it++ {
		p := Generate(arch, deriveSeed(21, it))
		d, err := RunDiff(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range Classify(p, d) {
			if f.Category == cat {
				return p
			}
		}
	}
	t.Fatalf("no %s finding in 2000 programs", cat)
	return nil
}

// TestMinimizeStopsWhenCancelled: both legs' machines are bound to the
// run's context, and the minimizer checks it before every
// delta-debugging step, so a done context ends either with its error.
func TestMinimizeStopsWhenCancelled(t *testing.T) {
	p := findOne(t, "zen2", CatDeepWindow)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runDiff(ctx, &rig{}, p); !errors.Is(err, context.Canceled) {
		t.Errorf("runDiff = %v, want context.Canceled", err)
	}
	if _, err := minimize(ctx, &rig{}, p, CatDeepWindow); !errors.Is(err, context.Canceled) {
		t.Errorf("minimize = %v, want context.Canceled", err)
	}
}

// TestMinimizeLocallyMinimal verifies the minimizer's contract
// independently of its implementation: on the shrunk program, removing
// any single victim or gadget statement — or one training round — loses
// the finding.
func TestMinimizeLocallyMinimal(t *testing.T) {
	p := findOne(t, "zen2", CatDeepWindow)
	min, err := Minimize(p, CatDeepWindow)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := reproduces(context.Background(), &rig{}, min, CatDeepWindow); err != nil || !ok {
		t.Fatalf("minimized program does not reproduce (ok=%v err=%v)", ok, err)
	}
	if len(min.Victim) > len(p.Victim) || len(min.Gadget) > len(p.Gadget) {
		t.Fatalf("minimization grew the program: %d/%d -> %d/%d statements",
			len(p.Victim), len(p.Gadget), len(min.Victim), len(min.Gadget))
	}

	drop := func(l []string, i int) []string {
		out := append([]string(nil), l[:i]...)
		return append(out, l[i+1:]...)
	}
	for i := range min.Victim {
		c := min.clone()
		c.Victim = drop(c.Victim, i)
		if ok, _ := reproduces(context.Background(), &rig{}, c, CatDeepWindow); ok {
			t.Errorf("removing victim[%d] (%q) keeps the finding: not locally minimal", i, min.Victim[i])
		}
	}
	for i := range min.Gadget {
		c := min.clone()
		c.Gadget = drop(c.Gadget, i)
		if ok, _ := reproduces(context.Background(), &rig{}, c, CatDeepWindow); ok {
			t.Errorf("removing gadget[%d] (%q) keeps the finding: not locally minimal", i, min.Gadget[i])
		}
	}
	if min.Rounds > 1 {
		c := min.clone()
		c.Rounds--
		if ok, _ := reproduces(context.Background(), &rig{}, c, CatDeepWindow); ok {
			t.Errorf("dropping a training round (%d -> %d) keeps the finding: not locally minimal",
				min.Rounds, c.Rounds)
		}
	}
}

// TestMinimizeRejectsNonReproducing: handing the minimizer a program
// that never exhibited the category is a caller bug it must report, not
// quietly return the input.
func TestMinimizeRejectsNonReproducing(t *testing.T) {
	p := &Program{Arch: "zen2", Seed: 5, Train: TrainJmpInd, Rounds: 1,
		Victim: []string{"nop1"}, Gadget: []string{"nop1"}}
	if _, err := Minimize(p, CatArchDivergence); err == nil {
		t.Fatal("want error for a program that does not reproduce the category")
	}
}

// TestMinimizedKeyStable: the search loop dedups on post-minimization
// keys; minimizing an already-minimal program must be a no-op with the
// same key.
func TestMinimizedKeyStable(t *testing.T) {
	r, err := Run(context.Background(), Options{Arch: "zen2", Seed: 3, Budget: 320, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Findings) == 0 {
		t.Skip("no findings at this budget")
	}
	f := r.Findings[0]
	again, err := Minimize(f.Program, f.Category)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDiff(again)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range Classify(again, d) {
		if g.Category == f.Category {
			if g.Key() != f.Key() {
				t.Errorf("re-minimization changed the key: %s -> %s", f.Key(), g.Key())
			}
			return
		}
	}
	t.Fatalf("re-minimized program lost category %s", f.Category)
}
