package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"phantom/internal/telemetry"
)

// TestSearchDeterministicAcrossJobs pins the sweep-partition invariant:
// the same (arch, seed, budget) yields byte-identical findings — render
// and JSON — whatever the worker-pool size.
func TestSearchDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) *Result {
		t.Helper()
		r, err := Run(context.Background(), Options{Arch: "zen2", Seed: 1, Budget: 640, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return r
	}
	r1, r8 := run(1), run(8)

	var b1, b8 bytes.Buffer
	if err := r1.Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r8.Render(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Errorf("render differs between -jobs=1 and -jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s", b1.String(), b8.String())
	}

	j1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	j8, err := json.Marshal(r8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j8) {
		t.Errorf("JSON differs between -jobs=1 and -jobs=8")
	}
}

// TestSearchFindsKnownAnomaly seeds the acceptance check: the Zen 2
// Table 1 divergence — a decoder-detectable misprediction that still
// dispatches wrong-path µops (Observation O3) — must fall out of a
// small random search as a deep-window finding, minimized and
// re-measured.
func TestSearchFindsKnownAnomaly(t *testing.T) {
	r, err := Run(context.Background(), Options{Arch: "zen2", Seed: 1, Budget: 400, Jobs: 0})
	if err != nil {
		t.Fatal(err)
	}
	var deep *Finding
	for i := range r.Findings {
		if r.Findings[i].Category == CatDeepWindow {
			deep = &r.Findings[i]
			break
		}
	}
	if deep == nil {
		t.Fatalf("no %s finding in %d findings (the Zen 2 phantom window executes µops; the search must surface it)",
			CatDeepWindow, len(r.Findings))
	}
	if deep.MaxUops < 1 {
		t.Errorf("deep-window finding with MaxUops=%d, want >=1", deep.MaxUops)
	}
	// The minimized reproducer must still reproduce standalone.
	if ok, err := reproduces(context.Background(), &rig{}, deep.Program, CatDeepWindow); err != nil || !ok {
		t.Errorf("minimized deep-window program does not reproduce (ok=%v err=%v)", ok, err)
	}
}

func TestSearchBadArch(t *testing.T) {
	if _, err := Run(context.Background(), Options{Arch: "z80", Budget: 1}); err == nil {
		t.Fatal("want error for unknown arch")
	}
}

// TestSearchBudget: a negative budget is an error, and 0 runs
// DefaultBudget programs.
func TestSearchBudget(t *testing.T) {
	if _, err := Run(context.Background(), Options{Arch: "zen2", Budget: -5}); err == nil {
		t.Fatal("want error for a negative budget")
	}
	r, err := Run(context.Background(), Options{Arch: "zen2", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Budget != DefaultBudget {
		t.Fatalf("Budget 0 ran %d programs, want DefaultBudget (%d)", r.Budget, DefaultBudget)
	}
}

func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Options{Arch: "zen2", Seed: 1, Budget: 320}); err == nil {
		t.Fatal("want error from pre-cancelled context")
	}
}

// TestSearchCancelledDuringMinimization: a cancel that lands once the
// sweep is over, while its findings wait to be minimized, must end the
// run with the context's error instead of returning findings. The
// progress line's closing newline, written as the sweep ends, fires the
// cancel; seed 1 at budget 64 has findings to minimize.
func TestSearchCancelledDuringMinimization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	telemetry.Enable(telemetry.Config{Progress: cancelOnNewline(cancel)})
	defer telemetry.Disable() //nolint:errcheck // no run log to flush
	r, err := Run(ctx, Options{Arch: "zen2", Seed: 1, Budget: 64, Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want context.Canceled", r, err)
	}
}

// cancelOnNewline is a progress sink that cancels on the first newline.
type cancelOnNewline context.CancelFunc

func (c cancelOnNewline) Write(p []byte) (int, error) {
	if bytes.IndexByte(p, '\n') >= 0 {
		c()
	}
	return len(p), nil
}

func TestRenderEmpty(t *testing.T) {
	r := &Result{Arch: "zen2", Seed: 7, Budget: 10}
	var b bytes.Buffer
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no findings") {
		t.Errorf("empty render missing 'no findings':\n%s", b.String())
	}
}

func TestResultCategories(t *testing.T) {
	r := &Result{Findings: []Finding{
		{Category: CatLeakChannel}, {Category: CatDeepWindow}, {Category: CatLeakChannel},
	}}
	got := r.Categories()
	if len(got) != 2 || got[0] != CatDeepWindow || got[1] != CatLeakChannel {
		t.Errorf("Categories() = %v, want [deep-window leak-channel]", got)
	}
}

func TestCategoryInvariant(t *testing.T) {
	for _, c := range categoryOrder {
		want := c == CatUncoveredChannel || c == CatWindowExceeded || c == CatArchDivergence
		if c.Invariant() != want {
			t.Errorf("%s.Invariant() = %v, want %v", c, c.Invariant(), want)
		}
	}
}
