package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"phantom/internal/search"
)

// cmdSearch runs the automated attack-variant search: -budget random
// programs are generated from -seed, each executed mispredict-on vs
// mispredict-off, divergences classified, and the first program of
// every distinct signature delta-debugged to a minimal reproducer.
// Stdout is byte-identical at any -jobs value; -fixtures lands the
// minimized findings as replayable JSON fixtures (diagnostics about
// the written files go to stderr, so stdout stays pinned).
func cmdSearch(ctx context.Context, w, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	fs.SetOutput(stderr)
	arch := fs.String("arch", "zen2", "microarchitecture to search")
	seed := fs.Int64("seed", 1, "random seed")
	budget := fs.Int("budget", search.DefaultBudget,
		fmt.Sprintf("programs to generate and differentially execute; at most %d", search.MaxBudget))
	jobs := fs.Int("jobs", 0, "parallel workers (0 = GOMAXPROCS, 1 = sequential)")
	fixtures := fs.String("fixtures", "", "write minimized findings as fixtures under this directory")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := search.Run(ctx, search.Options{
		Arch: *arch, Seed: *seed, Budget: *budget, Jobs: *jobs,
	})
	if err != nil {
		return err
	}
	if *fixtures != "" {
		for i := range res.Findings {
			f := &res.Findings[i]
			// Re-measure the minimized program for the per-leg cycle
			// counts the fixture pins (Run already verified it diffs).
			d, err := search.RunDiff(f.Program)
			if err != nil {
				return err
			}
			path, err := search.WriteFixture(*fixtures, search.NewFixture(f, d))
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "phantom search: wrote %s\n", path)
		}
	}
	if *asJSON {
		return emitJSON(w, res)
	}
	return res.Render(w)
}
