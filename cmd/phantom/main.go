// Command phantom regenerates the tables and figures of "Phantom:
// Exploiting Decoder-detectable Mispredictions" (MICRO 2023) on the
// simulated machines.
//
// Usage:
//
//	phantom <experiment> [flags]
//
// `phantom help` lists the experiments. Each one is declared once, in
// the catalog of internal/service: its flags and their defaults, its -h
// text, its -json output, and its `phantom all` step are all generated
// from that entry, and every invocation is normalized exactly as
// cmd/phantom-server normalizes a request. `phantom search` (differential
// fuzzing of the speculation model) is the one CLI-only experiment.
//
// Common flags: -arch, -seed, -runs, -jobs; see -h of each experiment.
// Multi-run experiments fan their (arch, reboot) jobs over a worker pool
// of -jobs workers (default GOMAXPROCS); every run derives its own seed,
// so the output is byte-identical whatever the pool size.
//
// Text output renders through the same engine as cmd/phantom-server
// (internal/service.Execute), so a served result is byte-identical to
// the CLI's stdout for the same request; -json paths emit the raw
// structures instead.
//
// Telemetry flags (before the experiment name):
//
//	phantom -metrics run.jsonl -progress -debug-addr localhost:6060 kaslr -runs 100
//
// -metrics writes a JSONL run log (one record per sweep job plus a final
// summary; schema in DESIGN.md), -progress renders a live stderr status
// line for the sweeps, and -debug-addr serves net/http/pprof and a
// /metrics snapshot while the experiment runs. Telemetry observes the
// harness only: experiment output stays byte-identical with it on or
// off.
//
// SIGINT/SIGTERM cancel the in-flight sweep jobs, flush the -metrics
// run log (the summary record is written even for an interrupted run),
// and exit 1 — an interrupted run leaves a readable log, not a
// truncated one.
//
// Exit codes: 0 on success, 1 on runtime errors (including values the
// server would reject with 400, such as a negative -runs or an unknown
// -arch), 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"phantom/internal/service"
	"phantom/internal/telemetry"
)

func main() {
	// NotifyContext is the interrupt path: the first SIGINT/SIGTERM
	// cancels the context (jobs unwind, telemetry flushes, exit 1); a
	// second signal hits the now-restored default handler and kills a
	// hung process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMainCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks command-line mistakes; realMain turns it into exit
// code 2 (runtime failures exit 1).
var errUsage = errors.New("usage error")

// parseFlags parses a subcommand flag set, folding parse failures into
// the usage-error exit path.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp // usage already printed; exits 0
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// realMain runs the CLI and returns the process exit code (kept for
// tests that don't exercise cancellation or capture stdout).
func realMain(args []string, stderr io.Writer) int {
	return realMainCtx(context.Background(), args, os.Stdout, stderr)
}

// realMainCtx is the testable CLI entry point: ctx cancellation stands
// in for SIGINT/SIGTERM, stdout receives experiment output, stderr
// diagnostics. Whatever cancels the run, the telemetry teardown below
// still executes, so an interrupted -metrics run log always ends with
// its summary record.
func realMainCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("phantom", flag.ContinueOnError)
	top.SetOutput(stderr)
	top.Usage = func() { usage(stderr) }
	metricsPath := top.String("metrics", "", "write a JSONL telemetry run log to this file")
	progress := top.Bool("progress", false, "render a live sweep progress line on stderr")
	debugAddr := top.String("debug-addr", "", "serve net/http/pprof and /metrics on this address while running")
	if err := top.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rest := top.Args()
	if len(rest) == 0 {
		usage(stderr)
		return 2
	}
	cmd, cargs := rest[0], rest[1:]
	switch cmd {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	fn, ok := command(cmd)
	if !ok {
		fmt.Fprintf(stderr, "phantom: unknown experiment %q\n\n", cmd)
		usage(stderr)
		return 2
	}

	// Telemetry session: enabled by any of the observability flags,
	// torn down (summary record, final progress line) before exit.
	tcfg := telemetry.Config{Label: cmd, Progress: nil}
	enable := false
	var logFile *os.File
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "phantom: -metrics: %v\n", err)
			return 1
		}
		logFile = f
		tcfg.RunLog = f
		enable = true
	}
	if *progress {
		tcfg.Progress = stderr
		enable = true
	}
	var debug *telemetry.DebugServer
	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "phantom: %v\n", err)
			return 1
		}
		debug = srv
		fmt.Fprintf(stderr, "phantom: debug server on http://%s (/metrics, /debug/pprof)\n", srv.Addr())
		enable = true
	}
	if enable {
		telemetry.Enable(tcfg)
	}

	err := fn(ctx, stdout, stderr, cargs)

	code := 0
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintf(stderr, "phantom %s: %v\n", cmd, err)
		code = 2
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		fmt.Fprintf(stderr, "phantom %s: interrupted\n", cmd)
		code = 1
	default:
		fmt.Fprintf(stderr, "phantom %s: %v\n", cmd, err)
		code = 1
	}
	if enable {
		if derr := telemetry.Disable(); derr != nil && code == 0 {
			fmt.Fprintf(stderr, "phantom: telemetry: %v\n", derr)
			code = 1
		}
	}
	if logFile != nil {
		if cerr := logFile.Close(); cerr != nil && code == 0 {
			fmt.Fprintf(stderr, "phantom: -metrics: %v\n", cerr)
			code = 1
		}
	}
	if debug != nil {
		debug.Close()
	}
	return code
}

// command resolves a subcommand: every catalog experiment, plus the
// CLI-only search and all. Each writes experiment output to stdout only,
// diagnostics and -h text to stderr.
func command(name string) (func(ctx context.Context, stdout, stderr io.Writer, args []string) error, bool) {
	switch name {
	case "search":
		return cmdSearch, true
	case "all":
		return cmdAll, true
	}
	e, ok := service.Lookup(name)
	if !ok {
		return nil, false
	}
	return func(ctx context.Context, stdout, stderr io.Writer, args []string) error {
		return runExperiment(ctx, stdout, stderr, e, args)
	}, true
}

func usage(w io.Writer) {
	fmt.Fprint(w, `phantom — reproduce the MICRO'23 Phantom paper on a simulated machine

usage: phantom [-metrics file] [-progress] [-debug-addr addr] <experiment> [flags]

experiments:
`)
	for _, e := range service.Catalog() {
		line := e.Usage
		if e.Paper != "" {
			line = fmt.Sprintf("%-38s (%s)", e.Usage, e.Paper)
		}
		fmt.Fprintf(w, "  %-12s %s\n", e.Name, line)
	}
	fmt.Fprint(w, `  search       differential fuzzing of the speculation model
  all          run everything with defaults

serving: the same experiments are available over HTTP from the
phantom-server binary (see EXPERIMENTS.md, "Serving mode").
`)
}

// emitJSON pretty-prints v to w.
func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runExperiment parses args with the flag set generated from e's catalog
// entry, normalizes the request exactly as the server does, and renders
// it as text or, under -json, as e's JSON documents.
func runExperiment(ctx context.Context, stdout, stderr io.Writer, e *service.Experiment, args []string) error {
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	request := e.Flags(fs)
	var jobs int
	if e.Jobs {
		fs.IntVar(&jobs, "jobs", 0, "parallel workers (0 = GOMAXPROCS, 1 = sequential)")
	}
	var asJSON bool
	if e.JSON {
		fs.BoolVar(&asJSON, "json", false, "emit JSON instead of text")
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	req, err := request().Normalize()
	if err != nil {
		return err
	}
	if !asJSON {
		if e.Hint != "" {
			fmt.Fprintln(stderr, e.Hint)
		}
		return service.Execute(ctx, stdout, req, jobs)
	}
	docs, err := service.Run(ctx, io.Discard, req, jobs)
	if err != nil {
		return err
	}
	for _, d := range docs {
		if err := emitJSON(stdout, d); err != nil {
			return err
		}
	}
	return nil
}

// allScale holds the two steps `phantom all` runs below their defaults.
var allScale = map[string][]string{
	"covert": {"-bits", "1024", "-runs", "5"},
	"mds":    {"-runs", "5", "-bytes", "1024"},
}

// allSteps builds the `phantom all` schedule from the catalog. Every step
// receives the shared -seed (`phantom all -seed 42` must run the *whole*
// sweep at 42, not just table1), the steps with a -runs flag receive
// -runs unless allScale pins their scale, and the sweep-backed steps
// receive -jobs. The report is left out: it is a whole-paper run of its
// own.
func allSteps(seed int64, runs, jobs int) [][]string {
	var steps [][]string
	for _, e := range service.Catalog() {
		if e.Name == "report" {
			continue
		}
		s := []string{e.Name, "-seed", fmt.Sprint(seed)}
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		e.Flags(fs)
		if scale, ok := allScale[e.Name]; ok {
			s = append(s, scale...)
		} else if fs.Lookup("runs") != nil {
			s = append(s, "-runs", fmt.Sprint(runs))
		}
		if e.Jobs {
			s = append(s, "-jobs", fmt.Sprint(jobs))
		}
		steps = append(steps, s)
	}
	return steps
}

func cmdAll(ctx context.Context, stdout, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed, forwarded to every step")
	runs := fs.Int("runs", 10, "reboots for the multi-run experiments")
	jobs := fs.Int("jobs", 0, "parallel workers per step (0 = GOMAXPROCS, 1 = sequential)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	for _, s := range allSteps(*seed, *runs, *jobs) {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n===== phantom %s =====\n", strings.Join(s, " "))
		e, _ := service.Lookup(s[0])
		if err := runExperiment(ctx, stdout, stderr, e, s[1:]); err != nil {
			return fmt.Errorf("%s: %w", s[0], err)
		}
	}
	return nil
}
