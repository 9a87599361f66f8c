package service

import (
	"strings"
	"testing"
	"time"

	"phantom"
)

// mustNormalize is the test helper for requests that must be valid.
func mustNormalize(t *testing.T, r Request) Request {
	t.Helper()
	n, err := r.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", r, err)
	}
	return n
}

// TestKeyCanonicalization pins the content-address invariant: every
// spelling of the same question hashes identically, and different
// questions hash differently. This is what makes the cache and the
// singleflight group correct — a miss here is either a useless cache
// split or, worse, two different experiments sharing a result.
func TestKeyCanonicalization(t *testing.T) {
	base := mustNormalize(t, Request{Experiment: "kaslr"}).Key()
	same := []Request{
		// Explicit defaults vs zero values.
		{Experiment: "kaslr", Seed: 1, Runs: 20},
		{Experiment: "kaslr", Archs: []string{"zen2", "zen3", "zen4"}},
		// Slice ordering and duplicates are not semantic.
		{Experiment: "kaslr", Archs: []string{"zen4", "zen2", "zen3"}},
		{Experiment: "kaslr", Archs: []string{"zen3", "zen3", "zen2", "zen4", "zen2"}},
		// Fields the experiment does not consume cannot split the key.
		{Experiment: "kaslr", Trials: 9, Noise: 0.5, Bits: 64, Bytes: 128, Samples: 7},
	}
	for _, r := range same {
		if got := mustNormalize(t, r).Key(); got != base {
			t.Errorf("Key(%+v) = %s, want %s (canonically equal requests must hash identically)", r, got, base)
		}
	}
	different := []Request{
		{Experiment: "kaslr", Seed: 2},
		{Experiment: "kaslr", Runs: 21},
		{Experiment: "kaslr", Archs: []string{"zen2"}},
		{Experiment: "physmap"},
	}
	for _, r := range different {
		if got := mustNormalize(t, r).Key(); got == base {
			t.Errorf("Key(%+v) collides with the default kaslr request", r)
		}
	}
}

// TestKeyAliasExpansion checks "all"/"amd" hash like their expansions.
func TestKeyAliasExpansion(t *testing.T) {
	alias := mustNormalize(t, Request{Experiment: "table1", Archs: []string{"all"}})
	explicit := mustNormalize(t, Request{Experiment: "table1"})
	if alias.Key() != explicit.Key() {
		t.Errorf("archs [all] and the default set hash differently")
	}
	amd := mustNormalize(t, Request{Experiment: "covert", Archs: []string{"amd"}})
	if got := mustNormalize(t, Request{Experiment: "covert"}); got.Key() != amd.Key() {
		t.Errorf("archs [amd] and covert's default hash differently")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	n := mustNormalize(t, Request{Experiment: "fig7"})
	if n.Seed != 9 || n.Samples != 22 || len(n.Archs) != 1 || n.Archs[0] != "zen3" {
		t.Errorf("fig7 defaults = %+v", n)
	}
	if n.Runs != 0 || n.Trials != 0 || n.Bits != 0 || n.Bytes != 0 {
		t.Errorf("fig7 normalization left irrelevant fields set: %+v", n)
	}
	t1 := mustNormalize(t, Request{Experiment: "table1"})
	if t1.Trials != 6 || t1.Seed != 1 || len(t1.Archs) != 8 {
		t.Errorf("table1 defaults = %+v", t1)
	}
}

func TestNormalizeCanonicalArchOrder(t *testing.T) {
	n := mustNormalize(t, Request{Experiment: "table1", Archs: []string{"intel13", "zen1", "intel9", "zen4"}})
	want := []string{"zen1", "zen4", "intel9", "intel13"}
	if len(n.Archs) != len(want) {
		t.Fatalf("Archs = %v, want %v", n.Archs, want)
	}
	for i := range want {
		if n.Archs[i] != want[i] {
			t.Fatalf("Archs = %v, want %v (paper order)", n.Archs, want)
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unknown experiment", Request{Experiment: "tablet1"}, "unknown experiment"},
		{"unknown arch", Request{Experiment: "table1", Archs: []string{"zen5"}}, "unknown microarchitecture"},
		{"archs on physaddr", Request{Experiment: "physaddr", Archs: []string{"zen2"}}, "takes no arch list"},
		{"archs on report", Request{Experiment: "report", Archs: []string{"zen2"}}, "takes no arch list"},
		{"negative runs", Request{Experiment: "kaslr", Runs: -1}, "negative runs"},
		{"negative trials", Request{Experiment: "table1", Trials: -2}, "negative trials"},
		{"negative noise", Request{Experiment: "table1", Noise: -0.5}, "negative noise"},
		{"table1 trials over ceiling", Request{Experiment: "table1", Trials: phantom.Table1Trials.Max + 1}, "ceiling"},
		{"fig7 samples over ceiling", Request{Experiment: "fig7", Samples: phantom.Fig7Samples.Max + 1}, "ceiling"},
		{"covert bits over ceiling", Request{Experiment: "covert", Bits: phantom.Table2Bits.Max + 1}, "ceiling"},
		{"covert runs over ceiling", Request{Experiment: "covert", Runs: phantom.Table2Runs.Max + 1}, "ceiling"},
		{"kaslr runs over ceiling", Request{Experiment: "kaslr", Runs: phantom.Table3Runs.Max + 1}, "ceiling"},
		{"physmap runs over ceiling", Request{Experiment: "physmap", Runs: phantom.Table4Runs.Max + 1}, "ceiling"},
		{"physaddr runs over ceiling", Request{Experiment: "physaddr", Runs: phantom.Table5Runs.Max + 1}, "ceiling"},
		{"mds runs over ceiling", Request{Experiment: "mds", Runs: phantom.MDSRuns.Max + 1}, "ceiling"},
		{"mds bytes over ceiling", Request{Experiment: "mds", Bytes: phantom.MDSBytes.Max + 1}, "ceiling"},
		{"report runs over ceiling", Request{Experiment: "report", Runs: phantom.ReportRuns.Max + 1}, "ceiling"},
		{"report bits over ceiling", Request{Experiment: "report", Bits: phantom.ReportBits.Max + 1}, "ceiling"},
	}
	for _, c := range cases {
		_, err := c.req.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize(%+v) err = %v, want contains %q", c.name, c.req, err, c.want)
		}
	}
}

func TestExperimentsListsCatalog(t *testing.T) {
	names := Experiments()
	if len(names) != len(experiments) {
		t.Fatalf("Experiments() has %d names, catalog %d", len(names), len(experiments))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Experiments() not sorted: %v", names)
		}
	}
	for _, want := range []string{"table1", "report", "chain"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("Experiments() missing %q", want)
		}
	}
}

func TestTimeoutScalesWithWeight(t *testing.T) {
	light := Request{Experiment: "fig6"}.Timeout(time.Second)
	heavy := Request{Experiment: "report"}.Timeout(time.Second)
	if light != time.Second {
		t.Errorf("fig6 timeout = %v, want 1s", light)
	}
	if heavy != 10*time.Second {
		t.Errorf("report timeout = %v, want 10s", heavy)
	}
	if unknown := (Request{Experiment: "nope"}).Timeout(time.Second); unknown != time.Second {
		t.Errorf("unknown-experiment timeout = %v, want the base", unknown)
	}
}

func TestClipGuardsShortLeaks(t *testing.T) {
	short := []byte{1, 2, 3}
	if got := clip(short, 16); len(got) != 3 {
		t.Errorf("clip(short, 16) = %v", got)
	}
	if got := clip(make([]byte, 64), 16); len(got) != 16 {
		t.Errorf("clip(long, 16) returned %d bytes", len(got))
	}
	if got := clip(nil, 16); got != nil {
		t.Errorf("clip(nil, 16) = %v", got)
	}
}
