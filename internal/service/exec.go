package service

import (
	"context"
	"fmt"
	"io"

	"phantom"
)

// Execute evaluates one request and writes the experiment's text
// rendering to w: look up, Normalize, run, render. This is the single
// rendering engine behind both front ends: cmd/phantom calls it for its
// stdout and cmd/phantom-server for response bodies, which is what makes
// served results byte-identical to CLI output by construction (and
// pinned by TestServedOutputMatchesCLI).
//
// ctx bounds the evaluation: it reaches every machine the experiment
// boots, so cancellation or an expired deadline stops the running
// simulations at their next machine run, and the error wraps ctx's.
// jobs sizes the worker pool of the sweep-backed
// experiments (0 = GOMAXPROCS); it never changes the output, only how
// fast it is produced.
func Execute(ctx context.Context, w io.Writer, req Request, jobs int) error {
	_, err := Run(ctx, w, req, jobs)
	return err
}

// Run is Execute that also returns the experiment's JSON documents, the
// values the CLI's -json prints: one per arch for a per-arch experiment,
// and nil for experiments without a -json rendering.
func Run(ctx context.Context, w io.Writer, req Request, jobs int) ([]any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	e := byName[n.Experiment]
	if e.whole != nil {
		return e.whole(ctx, w, microarchs(n.Archs), n, jobs)
	}
	docs := make([]any, 0, len(n.Archs))
	for _, a := range n.Archs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		doc, err := e.perArch(ctx, w, phantom.Microarch(a), n, jobs)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// printed writes v's text form as one block and returns v as its JSON
// document.
func printed(w io.Writer, v any, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, v)
	return v, nil
}

// printedEach is printed for a sweep: one block and one JSON document
// per result.
func printedEach[T any](w io.Writer, vs []T, err error) ([]any, error) {
	if err != nil {
		return nil, err
	}
	docs := make([]any, len(vs))
	for i, v := range vs {
		fmt.Fprintln(w, v)
		docs[i] = v
	}
	return docs, nil
}

func runTable1(ctx context.Context, w io.Writer, a phantom.Microarch, r Request, _ int) (any, error) {
	tb, err := phantom.RunTable1(a, phantom.Table1Options{Context: ctx, Seed: r.Seed, Trials: r.Trials, Noise: r.Noise})
	return printed(w, tb, err)
}

func runFig6(ctx context.Context, w io.Writer, archs []phantom.Microarch, r Request, jobs int) ([]any, error) {
	series, err := phantom.RunFig6Sweep(ctx, archs, r.Seed, jobs)
	return printedEach(w, series, err)
}

func runFig7(ctx context.Context, w io.Writer, archs []phantom.Microarch, r Request, jobs int) ([]any, error) {
	recovered, err := phantom.RunFig7Sweep(archs, phantom.Fig7Options{Context: ctx, Seed: r.Seed, Samples: r.Samples, Jobs: jobs})
	return printedEach(w, recovered, err)
}

func runCovert(ctx context.Context, w io.Writer, archs []phantom.Microarch, r Request, jobs int) ([]any, error) {
	opts := phantom.Table2Options{Context: ctx, Seed: r.Seed, Bits: r.Bits, Runs: r.Runs, Jobs: jobs}
	rows, err := phantom.RunTable2Fetch(archs, opts)
	if err != nil {
		return nil, err
	}
	execRows, err := phantom.RunTable2Execute(archs, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(w, phantom.FormatTable2("Table 2 (top) — fetch covert channel (P1)", rows))
	fmt.Fprintln(w)
	fmt.Fprint(w, phantom.FormatTable2("Table 2 (bottom) — execute covert channel (P2)", execRows))
	return []any{map[string]any{"fetch": rows, "execute": execRows}}, nil
}

// derand adapts one of Tables 3-5 to a whole-request run; the rendered
// title carries the run count.
func derand(title string, table func([]phantom.Microarch, phantom.DerandOptions) ([]phantom.DerandRow, error)) wholeRun {
	return func(ctx context.Context, w io.Writer, archs []phantom.Microarch, r Request, jobs int) ([]any, error) {
		rows, err := table(archs, phantom.DerandOptions{Context: ctx, Seed: r.Seed, Runs: r.Runs, Jobs: jobs})
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, phantom.FormatDerand(fmt.Sprintf("%s (%d runs)", title, r.Runs), rows))
		return []any{rows}, nil
	}
}

// table5 is RunTable5 in the arch-list shape derand takes; Table 5 runs
// on its own fixed memory configurations.
func table5(_ []phantom.Microarch, opts phantom.DerandOptions) ([]phantom.DerandRow, error) {
	return phantom.RunTable5(opts)
}

func runMDS(ctx context.Context, w io.Writer, a phantom.Microarch, r Request, jobs int) (any, error) {
	rep, err := phantom.RunMDSExperiment(a, phantom.MDSOptions{Context: ctx, Seed: r.Seed, Runs: r.Runs, Bytes: r.Bytes, Jobs: jobs})
	return printed(w, rep, err)
}

func runMitigations(ctx context.Context, w io.Writer, a phantom.Microarch, r Request, _ int) (any, error) {
	m, err := phantom.RunMitigations(ctx, a, r.Seed)
	return printed(w, m, err)
}

// runSLS renders the straight-line-speculation cell (Table 1, footnote
// c) under one shared preamble.
func runSLS(ctx context.Context, w io.Writer, archs []phantom.Microarch, r Request, _ int) ([]any, error) {
	fmt.Fprintln(w, "Straight-line speculation past an unpredicted return (Spectre-SLS,")
	fmt.Fprintln(w, "Table 1 footnote c): the sequential bytes after a ret execute")
	fmt.Fprintln(w, "transiently on AMD parts; Intel frontends stall instead.")
	fmt.Fprintln(w)
	for _, a := range archs {
		tb, err := phantom.RunTable1(a, phantom.Table1Options{Context: ctx, Seed: r.Seed, Trials: 4})
		if err != nil {
			return nil, err
		}
		var reach phantom.StageReach
		for _, row := range tb.Cells {
			for _, c := range row {
				if c.Training == "non-branch" && c.Victim == "ret" {
					reach = c.Reach
				}
			}
		}
		fmt.Fprintf(w, "  %-26s %v\n", a.ModelName(), reach)
	}
	return nil, nil
}

func runReport(ctx context.Context, w io.Writer, _ []phantom.Microarch, r Request, jobs int) ([]any, error) {
	return nil, phantom.GenerateReport(w, phantom.ReportOptions{Context: ctx, Seed: r.Seed, Runs: r.Runs, Bits: r.Bits, Jobs: jobs})
}

// runChain renders the full Section 7 exploit chain on one boot. The
// leak runs the chain itself, so steps 1-3 are the ones it leaked
// through.
func runChain(ctx context.Context, w io.Writer, a phantom.Microarch, r Request, _ int) (any, error) {
	sys, err := phantom.NewSystem(a, phantom.SystemConfig{Seed: r.Seed, Context: ctx})
	if err != nil {
		return nil, err
	}
	secretVA, secret := sys.SecretAddr()
	leak, err := sys.LeakKernelMemory(secretVA, 64)
	if leak == nil {
		return nil, err // a harness failure or a cancelled run, not a chain result
	}
	// A step coming up empty on one boot is a chain result, not a harness
	// error: the steps it leaves without input render as not run.
	fmt.Fprintf(w, "=== Full exploit chain on %s (seed %d) ===\n", a.ModelName(), r.Seed)
	step := func(label string, s *phantom.KASLRResult) {
		if s == nil {
			fmt.Fprintf(w, "%-16s  not run\n", label)
			return
		}
		fmt.Fprintf(w, "%-16s  %#x  correct=%v  (%.4fs sim)\n", label, s.Guess, s.Correct, s.Seconds)
	}
	step("1. kernel image:", leak.Image)
	step("2. physmap:", leak.Physmap)
	step("3. page phys:", leak.PhysAddr)
	if err != nil {
		fmt.Fprintf(w, "4. leak @ %#x: not run\n", secretVA)
		return nil, nil
	}
	fmt.Fprintf(w, "4. leak @ %#x: accuracy %.2f%%, %.0f B/s sim\n", secretVA, leak.AccuracyPct, leak.BytesPerSecond)
	fmt.Fprintf(w, "   leaked: % x\n", clip(leak.Leaked, 16))
	fmt.Fprintf(w, "   truth:  % x\n", clip(secret, 16))
	return nil, nil
}

// clip returns at most the first n bytes of b, so a short leak result
// prints what it has instead of panicking.
func clip(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}
