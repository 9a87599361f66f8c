package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phantom"
	"phantom/internal/search"
	"phantom/internal/service"
)

// TestExitCodes pins the CLI convention shared by all three binaries:
// 0 success, 1 runtime error, 2 usage error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown experiment", []string{"frobnicate"}, 2},
		{"bad top-level flag", []string{"-definitely-not-a-flag", "table1"}, 2},
		{"bad subcommand flag", []string{"table1", "-definitely-not-a-flag"}, 2},
		{"help", []string{"help"}, 0},
		{"help flag", []string{"-h"}, 0},
		{"runtime error", []string{"mitigations", "-arch", "i486"}, 1},
		{"bad metrics path", []string{"-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl"), "table1"}, 1},
		// Negative counts get the server's 400 message, never a panic.
		{"negative kaslr runs", []string{"kaslr", "-runs", "-1"}, 1},
		{"negative physaddr runs", []string{"physaddr", "-runs", "-1"}, 1},
		{"negative report runs", []string{"report", "-runs", "-1"}, 1},
		{"negative covert bits", []string{"covert", "-bits", "-8"}, 1},
		{"negative covert runs", []string{"covert", "-runs", "-2"}, 1},
		{"negative mds bytes", []string{"mds", "-bytes", "-5"}, 1},
		{"negative mds runs", []string{"mds", "-runs", "-1"}, 1},
		{"negative fig7 samples", []string{"fig7", "-samples", "-1"}, 1},
		{"negative table1 trials", []string{"table1", "-trials", "-1"}, 1},
		{"NaN table1 noise", []string{"table1", "-arch", "zen2", "-trials", "2", "-noise", "NaN"}, 1},
		{"infinite table1 noise", []string{"table1", "-arch", "zen2", "-trials", "2", "-noise", "Inf"}, 1},
		{"negative infinite table1 noise", []string{"table1", "-arch", "zen2", "-trials", "2", "-noise", "-Inf"}, 1},
		{"negative search budget", []string{"search", "-budget", "-5"}, 1},
		{"zero search budget", []string{"search", "-budget", "0"}, 0},
		{"huge search budget", []string{"search", "-budget", "100000000000"}, 1},
	}
	for _, c := range cases {
		if got := realMainCtx(context.Background(), c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: realMain(%v) = %d, want %d", c.name, c.args, got, c.want)
		}
	}
	// A count over its ceiling exits 1 the same way, before the run
	// starts: under an already-cancelled context, a refusal that came
	// after the run started would report the interrupt, not the ceiling.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"table1", "-trials", over(phantom.Table1Trials)},
		{"fig7", "-samples", over(phantom.Fig7Samples)},
		{"covert", "-bits", over(phantom.Table2Bits)},
		{"covert", "-runs", over(phantom.Table2Runs)},
		{"kaslr", "-runs", over(phantom.Table3Runs)},
		{"physmap", "-runs", over(phantom.Table4Runs)},
		{"physaddr", "-runs", over(phantom.Table5Runs)},
		{"mds", "-runs", over(phantom.MDSRuns)},
		{"mds", "-bytes", over(phantom.MDSBytes)},
		{"report", "-runs", over(phantom.ReportRuns)},
		{"report", "-bits", over(phantom.ReportBits)},
		{"all", "-runs", over(phantom.Table4Runs)},
		{"search", "-budget", fmt.Sprint(search.MaxBudget + 1)},
	} {
		var stderr bytes.Buffer
		if got := realMainCtx(done, args, io.Discard, &stderr); got != 1 || !strings.Contains(stderr.String(), "ceiling") {
			t.Errorf("realMain(%v) = %d, %q; want 1 naming the ceiling", args, got, stderr.String())
		}
	}
}

// over spells the smallest count c refuses as a flag value.
func over(c phantom.Count) string { return fmt.Sprint(c.Max + 1) }

// TestMetricsRunLog runs a small experiment with -metrics and checks the
// produced run log is valid JSONL ending in a summary record.
func TestMetricsRunLog(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke run")
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	args := []string{"-metrics", path,
		"kaslr", "-arch", "zen2", "-runs", "2", "-jobs", "2"}

	// The experiment prints its table to stdout; silence it for the test.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	code := realMain(args, io.Discard)
	os.Stdout = old
	devnull.Close()
	if code != 0 {
		t.Fatalf("realMain(%v) = %d", args, code)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var types []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["type"].(string)
		if typ == "" {
			t.Fatalf("record without type: %q", sc.Text())
		}
		types = append(types, typ)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 {
		t.Fatal("empty run log")
	}
	if got := types[len(types)-1]; got != "summary" {
		t.Errorf("last record type = %q, want summary", got)
	}
	seen := map[string]bool{}
	for _, typ := range types {
		seen[typ] = true
	}
	for _, want := range []string{"sweep_start", "job", "sweep_end", "summary"} {
		if !seen[want] {
			t.Errorf("run log has no %q record (types: %v)", want, types)
		}
	}
}

// run invokes one subcommand the way realMainCtx does and returns its
// stdout.
func run(args ...string) (string, error) {
	fn, ok := command(args[0])
	if !ok {
		return "", fmt.Errorf("no subcommand %q", args[0])
	}
	var out bytes.Buffer
	err := fn(context.Background(), &out, io.Discard, args[1:])
	return out.String(), err
}

func TestAllStepsForwardSeedEverywhere(t *testing.T) {
	// Regression: `phantom all -seed 42` used to forward -seed only to
	// table1, silently running the other ten steps at the default seed.
	steps := allSteps(42, 7, 3)
	want := []string{"table1", "fig6", "fig7", "covert", "kaslr", "physmap", "physaddr", "mds", "mitigations", "sls", "chain"}
	if len(steps) != len(want) {
		t.Fatalf("%d steps, want %d: %v", len(steps), len(want), steps)
	}
	for i, s := range steps {
		if s[0] != want[i] {
			t.Errorf("step %d is %q, want %q", i, s[0], want[i])
		}
		if _, ok := command(s[0]); !ok {
			t.Errorf("step %q has no subcommand", s[0])
		}
		seeded := false
		for i, a := range s[:len(s)-1] {
			if a == "-seed" && s[i+1] == "42" {
				seeded = true
			}
		}
		if !seeded {
			t.Errorf("step %v does not forward -seed 42", s)
		}
	}
}

func TestAllStepsForwardJobsToSweeps(t *testing.T) {
	sweeps := map[string]bool{}
	for _, e := range service.Catalog() {
		sweeps[e.Name] = e.Jobs
	}
	for _, name := range []string{"fig6", "fig7", "covert", "kaslr", "physmap", "physaddr", "mds"} {
		if !sweeps[name] {
			t.Errorf("%s is not declared sweep-backed", name)
		}
	}
	for _, s := range allSteps(1, 5, 4) {
		forwarded := false
		for i, a := range s[:len(s)-1] {
			if a == "-jobs" && s[i+1] == "4" {
				forwarded = true
			}
		}
		if forwarded != sweeps[s[0]] {
			t.Errorf("step %v: forwards -jobs 4 = %v, want %v", s, forwarded, sweeps[s[0]])
		}
	}
}

// TestAllStepsAreExactlyTheHeaders pins the `phantom all` headers, which
// are derived from the catalog: any drift in a step's flags shows here.
func TestAllStepsAreExactlyTheHeaders(t *testing.T) {
	want := []string{
		"table1 -seed 1",
		"fig6 -seed 1 -jobs 0",
		"fig7 -seed 1 -jobs 0",
		"covert -seed 1 -bits 1024 -runs 5 -jobs 0",
		"kaslr -seed 1 -runs 10 -jobs 0",
		"physmap -seed 1 -runs 10 -jobs 0",
		"physaddr -seed 1 -runs 10 -jobs 0",
		"mds -seed 1 -runs 5 -bytes 1024 -jobs 0",
		"mitigations -seed 1",
		"sls -seed 1",
		"chain -seed 1",
	}
	steps := allSteps(1, 10, 0)
	if len(steps) != len(want) {
		t.Fatalf("%d steps, want %d", len(steps), len(want))
	}
	for i, s := range steps {
		if got := strings.Join(s, " "); got != want[i] {
			t.Errorf("step %d = %q, want %q", i, got, want[i])
		}
	}
}

// TestParseArchs pins how an -arch value becomes the arch list a run
// renders: the generated flag set followed by the server's Normalize.
func TestParseArchs(t *testing.T) {
	e, _ := service.Lookup("table1")
	parseArchs := func(spec string) ([]string, error) {
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		request := e.Flags(fs)
		if err := fs.Parse([]string{"-arch", spec}); err != nil {
			return nil, err
		}
		n, err := request().Normalize()
		return n.Archs, err
	}
	all, err := parseArchs("all")
	if err != nil || len(all) != 8 {
		t.Fatalf("all: %v, %v", all, err)
	}
	amd, err := parseArchs("amd")
	if err != nil || len(amd) != 4 {
		t.Fatalf("amd: %v, %v", amd, err)
	}
	list, err := parseArchs("zen2, zen4")
	if err != nil || len(list) != 2 || list[0] != string(phantom.Zen2) || list[1] != string(phantom.Zen4) {
		t.Fatalf("list: %v, %v", list, err)
	}
	if _, err := parseArchs("zen5"); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if _, err := parseArchs("zen2,badarch"); err == nil {
		t.Fatal("partially bad list accepted")
	}
	// The server's rules: canonical paper order, duplicates dropped.
	list, err = parseArchs("zen4,zen2,zen4")
	if err != nil || len(list) != 2 || list[0] != string(phantom.Zen2) || list[1] != string(phantom.Zen4) {
		t.Fatalf("reordered list: %v, %v", list, err)
	}
}

func TestExperimentsSmallRuns(t *testing.T) {
	// Every subcommand must complete with tiny parameters (smoke-level
	// CLI coverage; correctness is asserted by the package tests).
	if testing.Short() {
		t.Skip("CLI smoke runs")
	}
	cases := [][]string{
		{"table1", "-arch", "zen2", "-trials", "2"},
		{"covert", "-arch", "zen2", "-bits", "64", "-runs", "1"},
		{"kaslr", "-arch", "zen2", "-runs", "2", "-jobs", "2"},
		{"mds", "-arch", "zen2", "-runs", "1", "-bytes", "64"},
		{"chain", "-arch", "zen2"},
	}
	for _, args := range cases {
		if _, err := run(args...); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestChainDerandomizesOnce pins the chain's one-chain-per-boot
// contract: step 4 leaks through the bases steps 1-3 recovered, so the
// zen2 boots on which a second, independent derandomization used to
// miss now leak, and parts where P2 finds no physmap base render the
// steps it leaves without input as not run instead of failing.
func TestChainDerandomizesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven exploit chains")
	}
	for _, seed := range []string{"2", "3", "4"} {
		out, err := run("chain", "-arch", "zen2", "-seed", seed)
		if err != nil {
			t.Fatalf("chain -seed %s: %v", seed, err)
		}
		leaked, truth := lineAfter(out, "   leaked:"), lineAfter(out, "   truth:")
		if !strings.Contains(out, "4. leak @") || leaked == "" || leaked != truth {
			t.Errorf("chain -seed %s did not leak the secret:\n%s", seed, out)
		}
	}
	var out bytes.Buffer
	if code := realMainCtx(context.Background(), []string{"chain", "-arch", "amd"}, &out, io.Discard); code != 0 {
		t.Fatalf("chain -arch amd exited %d:\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "=== Full exploit chain"); n != 4 {
		t.Errorf("chain -arch amd rendered %d chains, want 4:\n%s", n, out.String())
	}
	if n := strings.Count(out.String(), ": not run"); n != 2 {
		t.Errorf("chain -arch amd: %d unrunnable leaks, want 2 (zen3, zen4):\n%s", n, out.String())
	}
}

// lineAfter returns the rest of out's first line that starts with
// prefix, trimmed, or "".
func lineAfter(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// TestZeroMeansDefault: a 0 count is the experiment's default, as on the
// server, and the rendered title says so.
func TestZeroMeansDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20 reboots")
	}
	out, err := run("kaslr", "-arch", "zen2", "-runs", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(20 runs)") {
		t.Errorf("kaslr -runs 0 does not render the 20-run default:\n%s", out)
	}
}

// TestInterruptFlushesRunLog pins the interrupt contract: when the run
// context is cancelled mid-experiment (the SIGINT/SIGTERM path in
// main), the CLI exits 1 *and* the -metrics run log is still flushed
// and summary-terminated. Before runners took a context, an interrupt
// killed the process with whatever half-written log happened to be on
// disk.
func TestInterruptFlushesRunLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // "signal" arrives before the first sweep job
	args := []string{"-metrics", path, "kaslr", "-arch", "zen2", "-runs", "50"}
	if code := realMainCtx(ctx, args, io.Discard, io.Discard); code != 1 {
		t.Fatalf("realMainCtx(cancelled, %v) = %d, want 1", args, code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("run log not written: %v", err)
	}
	var last map[string]any
	lines := 0
	for _, line := range splitLines(data) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		last = rec
		lines++
	}
	if lines == 0 {
		t.Fatal("interrupted run left an empty run log")
	}
	if typ, _ := last["type"].(string); typ != "summary" {
		t.Errorf("last record type = %q, want summary (interrupted log must still be summary-terminated)", typ)
	}
}

// splitLines splits JSONL bytes into non-empty lines.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}
