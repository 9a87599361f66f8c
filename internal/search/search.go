package search

import (
	"context"
	"errors"
	"fmt"
	"io"

	"phantom/internal/sweep"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// DefaultBudget is how many programs a search with Budget 0 runs.
const DefaultBudget = 5000

// MaxBudget is the largest Budget a search accepts. The paper gives
// search no scale, so, as for Table 1's trials, the ceiling is ten times
// the default; the nightly job runs 20,000. A larger budget only holds
// the workers for longer, and the sweep sizes its result slices by it
// before the first job starts: 10^11 programs asked for about 100 GB.
const MaxBudget = 10 * DefaultBudget

// Options tunes one search run.
type Options struct {
	Arch   string
	Seed   int64
	Budget int // programs to generate and diff (0 = DefaultBudget)
	// Jobs is the sweep worker-pool size (0 = GOMAXPROCS, 1 =
	// sequential). Findings are byte-identical at any value.
	Jobs int
}

// Result is what one search run produces.
type Result struct {
	Arch      string    `json:"arch"`
	Seed      int64     `json:"seed"`
	Budget    int       `json:"budget"`
	Anomalous int       `json:"anomalous"` // programs with >= 1 finding
	Findings  []Finding `json:"findings"`  // deduped, minimized, discovery order
}

// batchSize is how many iterations one sweep job runs. The job space
// is partitioned statically and program seeds derive from the absolute
// iteration index, so the batch size affects scheduling only.
const batchSize = 32

// jobResult is one batch's contribution, merged in job-index order.
type jobResult struct {
	anomalous int
	hits      []Finding // in iteration order, pre-dedup
}

// Run executes the search loop: Budget generated programs, each
// differentially executed and classified, fanned over the sweep worker
// pool; then (sequentially, in discovery order) the first program of
// every distinct signature is delta-debugged to a locally-minimal
// reproducer. A negative Budget, or one over MaxBudget, is an error.
//
// A leg is about ten instructions, so Run keeps what costs more than
// that to build: each sweep job takes a worker's state (a machine reset
// before every leg, and a generator reseeded for every program) from a
// free list and gives it back, so a run builds one per concurrently
// running job, and minimization reuses one of them.
//
// Determinism: program i is a pure function of (Seed, i), batches are
// merged in index order, and dedup keeps the first occurrence, so the
// finding set — and the rendered report — is byte-identical at any
// Jobs value. TestSearchDeterministicAcrossJobs pins this.
func Run(ctx context.Context, opts Options) (*Result, error) {
	telemetry.CountExperiment("search")
	if opts.Budget < 0 {
		return nil, errors.New("negative budget")
	}
	if opts.Budget > MaxBudget {
		return nil, fmt.Errorf("budget %d over its ceiling of %d (10 times the default)", opts.Budget, MaxBudget)
	}
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	if opts.Arch == "" {
		opts.Arch = "zen2"
	}
	// Fail on a bad arch name before spawning workers, with the plain
	// uarch error instead of an iteration-wrapped one.
	if _, err := uarch.ByName(opts.Arch); err != nil {
		return nil, err
	}

	batches := (opts.Budget + batchSize - 1) / batchSize
	sopts := sweep.Options{Jobs: opts.Jobs}
	if s := telemetry.Sweep("search", batches); s != nil {
		sopts.Observer = s
	}
	// The free list of worker state, sized to the number of jobs, each
	// of which gives back one state: a send to it never blocks.
	free := make(chan *worker, batches)
	take := func() *worker {
		select {
		case w := <-free:
			return w
		default:
			return new(worker)
		}
	}
	results, err := sweep.Run(ctx, batches, sopts, func(ctx context.Context, job int) (jobResult, error) {
		var jr jobResult
		w := take()
		defer func() { free <- w }()
		lo := job * batchSize
		hi := lo + batchSize
		if hi > opts.Budget {
			hi = opts.Budget
		}
		for it := lo; it < hi; it++ {
			if err := ctx.Err(); err != nil {
				return jr, err
			}
			p := w.gen.generate(opts.Arch, deriveSeed(opts.Seed, it))
			d, err := runDiff(ctx, &w.rig, p)
			if err != nil {
				return jr, fmt.Errorf("iteration %d (seed %d): %w", it, p.Seed, err)
			}
			fs := Classify(p, d)
			if len(fs) > 0 {
				jr.anomalous++
				jr.hits = append(jr.hits, fs...)
			}
		}
		return jr, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Arch: opts.Arch, Seed: opts.Seed, Budget: opts.Budget}
	seen := make(map[string]bool)
	var kept []Finding
	for _, jr := range results {
		res.Anomalous += jr.anomalous
		for _, f := range jr.hits {
			if k := f.Key(); !seen[k] {
				seen[k] = true
				kept = append(kept, f)
			}
		}
	}

	// Minimization runs sequentially over the deduped set, in discovery
	// order — it is the expensive tail, but the set is small (bounded by
	// distinct signatures, not by Budget). Minimization strips padding,
	// so raw signatures that differed only in padding collapse; findings
	// are deduped a second time on the minimized signature (which is
	// also the fixture filename, so it must be unique).
	minSeen := make(map[string]bool)
	r := &take().rig
	for _, f := range kept {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		min, err := minimize(ctx, r, f.Program, f.Category)
		if err != nil {
			return nil, fmt.Errorf("minimize %s: %w", f.Key(), err)
		}
		// Re-measure the minimized program so the pinned numbers match
		// what the fixture will replay.
		d, err := runDiff(ctx, r, min)
		if err != nil {
			return nil, err
		}
		var mf *Finding
		for _, g := range Classify(min, d) {
			if g.Category == f.Category {
				g := g
				mf = &g
				break
			}
		}
		if mf == nil {
			return nil, fmt.Errorf("minimize %s: minimized program lost the finding", f.Key())
		}
		if k := mf.Key(); !minSeen[k] {
			minSeen[k] = true
			res.Findings = append(res.Findings, *mf)
		}
	}
	return res, nil
}

// worker is the state a sweep worker keeps across its jobs.
type worker struct {
	rig rig
	gen generator
}

// Render writes the human-readable findings table. The output contains
// nothing scheduling-dependent (no worker count, no wall time), so it
// is byte-identical at any Jobs value.
func (r *Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "search — differential fuzzing of the speculation model\n")
	fmt.Fprintf(w, "arch=%s seed=%d budget=%d: %d anomalous programs, %d distinct findings\n\n",
		r.Arch, r.Seed, r.Budget, r.Anomalous, len(r.Findings))
	if len(r.Findings) == 0 {
		fmt.Fprintf(w, "no findings\n")
		return nil
	}
	fmt.Fprintf(w, "%-18s %-10s %3s %8s %5s %7s %6s %6s  %s\n",
		"CATEGORY", "TRAIN", "EP", "IF/ID/EX", "LOADS", "CYCLEΔ", "VICTIM", "GADGET", "FLAGS")
	for i := range r.Findings {
		f := &r.Findings[i]
		flags := ""
		if f.Category.Invariant() {
			flags += "!invariant"
		}
		fmt.Fprintf(w, "%-18s %-10s %3d %d/%d/%-4d %5d %7d %6d %6d  %s\n",
			f.Category, f.Train, f.Episodes,
			f.MaxFetch, f.MaxDecode, f.MaxUops,
			f.SpecLoads, f.CycleDelta,
			len(f.Program.Victim), len(f.Program.Gadget), flags)
	}
	return nil
}
