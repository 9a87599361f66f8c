package main

import (
	"bytes"
	"context"
	"math"
	"testing"

	"phantom/internal/cluster"
	"phantom/internal/service"
	"phantom/internal/sweep"
	"phantom/internal/telemetry"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

// A tail percentile is reported only where ten or more samples lie
// above it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		wantV  float64
		wantOK bool
	}{
		{1000, 99, 990, true}, // ranks 991..1000 lie beyond
		{999, 95, 950, true},  // p99 would leave only 9 beyond
		{200, 95, 190, true},
		{100, 90, 90, true},
		{40, 75, 30, true},
		{39, 100, 39, false}, // no ladder percentile qualifies: the maximum
		{1, 100, 1, false},
	} {
		p, v, ok := tail(seq(c.n), 99)
		if p != c.wantP || v != c.wantV || ok != c.wantOK {
			t.Errorf("tail(n=%d) = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.wantP, c.wantV, c.wantOK)
		}
	}
	if p, _, _ := tail(seq(100000), 99); p != 99 {
		t.Errorf("tail caps at the requested percentile, got p%g", p)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the benchmark's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates beyond two points
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent, so overlapping parallel children are not counted twice.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "unit", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "job", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "job", StartNS: 30, EndNS: 60},  // overlaps job 1
		{ID: 3, Parent: 0, Name: "job", StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "boot", StartNS: 10, EndNS: 25},
	}
	got := make(map[string]layerRow)
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	const ms = 1e-6 // the spans are in nanoseconds, the rows in ms
	want := map[string]layerRow{
		"unit": {Name: "unit", Count: 1, TotalMS: 100 * ms, SelfMS: 40 * ms}, // 100 - |[10,60] ∪ [90,100]|
		"job":  {Name: "job", Count: 3, TotalMS: 90 * ms, SelfMS: 75 * ms},   // 30-15 + 30 + 30
		"boot": {Name: "boot", Count: 1, TotalMS: 15 * ms, SelfMS: 15 * ms},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.TotalMS-w.TotalMS) > 1e-12 || math.Abs(g.SelfMS-w.SelfMS) > 1e-12 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if rows := selfTimes(spans); rows[0].Name != "job" {
		t.Errorf("rows not ordered by self time: %+v", rows)
	}
}

// An output that differs from its pinned digest, or from an earlier
// unit's output, is a failed check.
func TestDigestMismatchDetected(t *testing.T) {
	for w := range pinned {
		if pinnedOK(w, 1, "not the "+w+" output") {
			t.Errorf("%s: a wrong output passed the pinned digest", w)
		}
		if !pinnedOK(w, 2, "anything") {
			t.Errorf("%s: a seed without a pinned digest failed", w)
		}
	}
	out := newOutputs("kaslr_reboots", true)
	if !out.accept(2, "rows") || !out.accept(2, "rows") || !out.accept(3, "other rows") {
		t.Fatal("repeated identical output rejected")
	}
	if out.accept(2, "other rows") {
		t.Error("output differing from the first one for its seed accepted")
	}
	if out.accept(1, "rows") {
		t.Error("output differing from the pinned digest accepted")
	}
	probe := newOutputs("kaslr_reboots", false)
	if !probe.accept(1, "rows") {
		t.Error("the pinned digest was applied at probe scale")
	}
}

// mustHotSet is hotSet for tests.
func mustHotSet(t *testing.T, seed int64) []service.Request {
	t.Helper()
	hot, err := hotSet(seed)
	if err != nil {
		t.Fatal(err)
	}
	return hot
}

// The serve workload's request sequence is a pure function of the
// seed, client and index; every round holds exactly one cold request,
// cold requests never repeat a hot one, and each node owns the same
// share of every part's hot requests.
func TestServeSequenceDeterministic(t *testing.T) {
	hot := mustHotSet(t, 5)
	if len(hot) != serveHot {
		t.Fatalf("hot set has %d requests", len(hot))
	}
	if again := mustHotSet(t, 5); again[17].Seed != hot[17].Seed {
		t.Fatal("hot set not deterministic")
	}
	ring, err := cluster.NewRing(servePeers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[string]int)
	hotSeeds := make(map[int64]bool)
	for _, r := range hot {
		hotSeeds[r.Seed] = true
		norm, err := r.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		owned[ring.Owner(norm.Key()).ID+"/"+r.Archs[0]]++
	}
	if len(hotSeeds) != serveHot {
		t.Errorf("hot set repeats a seed: %d distinct", len(hotSeeds))
	}
	for _, p := range servePeers() {
		for _, a := range serveArchs {
			if n := owned[p.ID+"/"+a]; n != serveHot/len(serveArchs)/serveNodes {
				t.Errorf("node %s owns %d hot %s requests", p.ID, n, a)
			}
		}
	}
	hot6 := mustHotSet(t, 6)
	coldSeeds := make(map[int64]bool)
	coldAt := make(map[int]bool) // positions in the round, over all rounds
	differ := 0
	const rounds, per = 16, serveRoundReqs
	for c := 0; c < 2; c++ {
		for rd := 0; rd < rounds; rd++ {
			cold := 0
			for k := 0; k < per; k++ {
				i := rd*per + k
				r1, c1 := serveRequest(5, c, i, per, hot)
				r2, c2 := serveRequest(5, c, i, per, hot)
				if c1 != c2 || r1.Seed != r2.Seed || r1.Archs[0] != r2.Archs[0] {
					t.Fatalf("client %d request %d differs between calls", c, i)
				}
				if o, _ := serveRequest(6, c, i, per, hot6); o.Seed != r1.Seed {
					differ++
				}
				if !c1 {
					if !hotSeeds[r1.Seed] {
						t.Fatalf("hot request %d of client %d is not from the hot set", i, c)
					}
					continue
				}
				cold++
				coldAt[k] = true
				if r1.Seed < 1<<52 || coldSeeds[r1.Seed] || hotSeeds[r1.Seed] {
					t.Fatalf("cold seed %d repeats or overlaps the hot range", r1.Seed)
				}
				coldSeeds[r1.Seed] = true
			}
			if cold != 1 {
				t.Fatalf("client %d round %d has %d cold requests, want 1", c, rd, cold)
			}
		}
	}
	if len(coldAt) < rounds {
		t.Errorf("cold requests took only %d distinct positions in %d rounds", len(coldAt), 2*rounds)
	}
	if n := 2 * rounds * per; differ < n*9/10 {
		t.Errorf("another seed changed only %d of %d requests", differ, n)
	}
}

// Sweep metrics are reconstructed from job records alone.
func TestSweepStats(t *testing.T) {
	logs := []sweepLog{{Name: "s", Workers: 2, Jobs: []sweepJob{
		{Worker: 0, MS: 10}, {Worker: 1, MS: 20}, {Worker: 0, MS: 10}, {Worker: 0, MS: 10},
	}}}
	jobs, wait, busy, straggle, workers := sweepStats(logs)
	// Worker 0 runs 10+10+10 (its jobs wait 0, 10, 20), worker 1 runs 20.
	if len(jobs) != 4 || wait != 7.5 || math.Abs(busy-100*50.0/60) > 1e-9 || straggle != 10 || workers != 2 {
		t.Errorf("got jobs=%v wait=%g busy=%g straggle=%g workers=%d", jobs, wait, busy, straggle, workers)
	}
}

// The telemetry run log the traced run parses records every job of a
// sweep.Run with its pool size.
func TestParseRunLogFromSweep(t *testing.T) {
	var log bytes.Buffer
	telemetry.Enable(telemetry.Config{RunLog: &log})
	opts := sweep.Options{Jobs: 3}
	if s := telemetry.Sweep("t", 7); s != nil {
		opts.Observer = s
	}
	_, err := sweep.Run(context.Background(), 7, opts, func(context.Context, int) (int, error) { return 0, nil })
	if derr := telemetry.Disable(); err == nil {
		err = derr
	}
	if err != nil {
		t.Fatal(err)
	}
	logs, err := parseRunLog(log.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].Workers != 3 || len(logs[0].Jobs) != 7 {
		t.Fatalf("parsed %+v", logs)
	}
}

// BENCHMARK.json names the workloads this program runs, in order.
func TestSpecNamesWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}
