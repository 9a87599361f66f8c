package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"phantom/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRuns pins the stdout of every servable experiment, text and
// -json, at tiny scale with explicit seeds. Each invocation goes through
// the full CLI entry point, so a flag default, a rendering title, or a
// JSON field that drifts fails here byte for byte. Refresh intentionally
// with:
//
//	go test ./cmd/phantom -run 'Golden' -update
var goldenRuns = []struct {
	file string
	args []string
}{
	{"table1.golden", []string{"table1", "-arch", "zen2", "-trials", "2", "-seed", "3"}},
	{"table1_multi.golden", []string{"table1", "-arch", "zen1,intel9", "-trials", "2", "-seed", "2"}},
	{"table1.json.golden", []string{"table1", "-arch", "zen2", "-trials", "2", "-seed", "3", "-json"}},
	{"fig6.golden", []string{"fig6", "-arch", "zen2", "-seed", "2"}},
	{"fig6.json.golden", []string{"fig6", "-arch", "zen2", "-seed", "2", "-json"}},
	{"fig7.golden", []string{"fig7", "-seed", "3", "-samples", "4"}},
	{"fig7.json.golden", []string{"fig7", "-seed", "3", "-samples", "4", "-json"}},
	{"covert.golden", []string{"covert", "-arch", "zen2", "-bits", "64", "-runs", "2", "-seed", "2"}},
	{"covert.json.golden", []string{"covert", "-arch", "zen2", "-bits", "64", "-runs", "2", "-seed", "2", "-json"}},
	{"kaslr.golden", []string{"kaslr", "-arch", "zen2", "-runs", "2", "-seed", "2"}},
	{"kaslr.json.golden", []string{"kaslr", "-arch", "zen2", "-runs", "2", "-seed", "2", "-json"}},
	{"physmap.golden", []string{"physmap", "-arch", "zen1", "-runs", "1", "-seed", "4"}},
	{"physmap.json.golden", []string{"physmap", "-arch", "zen1", "-runs", "1", "-seed", "4", "-json"}},
	{"physaddr.golden", []string{"physaddr", "-runs", "1", "-seed", "2"}},
	{"physaddr.json.golden", []string{"physaddr", "-runs", "1", "-seed", "2", "-json"}},
	{"mds.golden", []string{"mds", "-arch", "zen2", "-runs", "1", "-bytes", "64", "-seed", "2"}},
	{"mds.json.golden", []string{"mds", "-arch", "zen2", "-runs", "1", "-bytes", "64", "-seed", "2", "-json"}},
	{"mitigations.golden", []string{"mitigations", "-arch", "zen1", "-seed", "2"}},
	{"mitigations.json.golden", []string{"mitigations", "-arch", "zen1", "-seed", "2", "-json"}},
	{"sls.golden", []string{"sls", "-arch", "zen1,zen4", "-seed", "2"}},
	{"chain.golden", []string{"chain", "-arch", "zen2", "-seed", "3"}},
	{"report.golden", []string{"report", "-runs", "1", "-bits", "16", "-seed", "2"}},
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, g := range goldenRuns {
		var out bytes.Buffer
		if code := realMainCtx(context.Background(), g.args, &out, io.Discard); code != 0 {
			t.Errorf("phantom %v: exit %d", g.args, code)
			continue
		}
		checkGolden(t, g.file, out.Bytes())
	}
}

// TestKeyGolden pins the content address of every experiment's default
// request and of a few non-default ones. Durable stores and the cluster
// ring are keyed by these bytes, so a change here orphans every stored
// result.
func TestKeyGolden(t *testing.T) {
	var reqs []service.Request
	for _, name := range service.Experiments() {
		reqs = append(reqs, service.Request{Experiment: name})
	}
	reqs = append(reqs,
		service.Request{Experiment: "table1", Archs: []string{"zen4", "zen2"}, Trials: 2, Noise: 0.25},
		service.Request{Experiment: "fig7", Seed: 3, Samples: 4},
		service.Request{Experiment: "covert", Archs: []string{"amd"}, Bits: 64, Runs: 3},
		service.Request{Experiment: "kaslr", Archs: []string{"zen2"}, Seed: 2, Runs: 21},
		service.Request{Experiment: "physaddr", Seed: 7, Runs: 5},
		service.Request{Experiment: "mds", Runs: 1, Bytes: 64},
		service.Request{Experiment: "report", Runs: 1, Bits: 16},
	)
	var buf bytes.Buffer
	for _, r := range reqs {
		n, err := r.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", r, err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s\n", n.Key(), raw)
	}
	checkGolden(t, "keys.golden", buf.Bytes())
}
