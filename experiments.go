package phantom

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"phantom/internal/core"
	"phantom/internal/kernel"
	"phantom/internal/pipeline"
	"phantom/internal/stats"
	"phantom/internal/sweep"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// sweepJobs runs job for every index in [0, n) on the named sweep's pool
// of jobs workers (0 = GOMAXPROCS) and returns the results in index
// order (see sweep.Run). Each job gets the sweep's context and binds it
// to every machine it builds (SystemConfig.Context or a core entry
// point's ctx), so a cancel, a deadline or a sibling job's failure stops
// it mid-attack, not only before it starts. ctx is the run's Context
// option: the server sets it from the request, the CLI from interrupts.
// The sweep reports to the process telemetry observer when one is
// active, which never changes a result.
func sweepJobs[T any](ctx context.Context, name string, n, jobs int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background() //phantomvet:ignore ctxflow a nil Context option means unbounded; there is no caller context to fork
	}
	o := sweep.Options{Jobs: jobs}
	if s := telemetry.Sweep(name, n); s != nil {
		o.Observer = s
	}
	return sweep.Run(ctx, n, o, job)
}

// sweepGrid is sweepJobs over a configs × runs grid, each job a (config,
// run) pair. It returns the results grouped by config, runs in order.
// job must derive all randomness from its coordinates, so the grouping
// is independent of the pool size.
func sweepGrid[T any](ctx context.Context, name string, configs, runs, jobs int, job func(ctx context.Context, c, r int) (T, error)) ([][]T, error) {
	flat, err := sweepJobs(ctx, name, configs*runs, jobs, func(ctx context.Context, i int) (T, error) {
		return job(ctx, i/runs, i%runs)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, configs)
	for c := range out {
		out[c] = flat[c*runs : (c+1)*runs]
	}
	return out, nil
}

// rebootConfig is one configuration of a reboot sweep: a part and its
// installed memory (0 means 8 GiB).
type rebootConfig struct {
	arch      Microarch
	physBytes uint64
}

// archConfigs is one configuration per part, each at the default memory.
func archConfigs(archs []Microarch) []rebootConfig {
	configs := make([]rebootConfig, len(archs))
	for i, a := range archs {
		configs[i].arch = a
	}
	return configs
}

// rebootGrid is sweepGrid over configs × runs where every job is one
// reboot: it boots its configuration at seed(r), bound to the job's
// context and with the default noise, and runs attack on the system.
// The call keeps one free list of machines per configuration, as
// search.Run keeps its workers' state: a reboot takes a machine an
// earlier reboot of its configuration gave back and kernel.Reboot
// resets it, so the sweep builds one machine per configuration and
// worker instead of one per reboot. Each configuration's profile is
// resolved once, because pipeline.Renew reuses a machine only for the
// profile pointer it was built for. No System booted here leaves the
// call.
func rebootGrid[T any](ctx context.Context, name string, configs []rebootConfig, runs, jobs int,
	seed func(r int) int64, attack func(sys *System) (T, error)) ([][]T, error) {
	profs := make([]*uarch.Profile, len(configs))
	free := make([]chan *pipeline.Machine, len(configs))
	for c, conf := range configs {
		p, err := conf.arch.profile()
		if err != nil {
			return nil, err
		}
		// Sized to the configuration's runs, so a release never blocks.
		profs[c], free[c] = p, make(chan *pipeline.Machine, runs)
	}
	return sweepGrid(ctx, name, len(configs), runs, jobs, func(ctx context.Context, c, r int) (T, error) {
		var m *pipeline.Machine
		select {
		case m = <-free[c]:
		default:
		}
		sys, err := bootSystem(m, configs[c].arch, profs[c], SystemConfig{Seed: seed(r), PhysBytes: configs[c].physBytes, Context: ctx})
		if err != nil {
			var zero T
			return zero, err
		}
		defer func() { free[c] <- sys.k.M }()
		return attack(sys)
	})
}

// StageReach is the paper's per-cell Table 1 annotation: which pipeline
// stages the mispredicted control flow observably entered.
type StageReach = core.Reach

// Table1Cell is one training×victim combination.
type Table1Cell struct {
	Training, Victim string
	Excluded         bool // symmetric cells the paper does not evaluate
	Note             string
	Reach            StageReach
}

// Table1 is the full matrix for one microarchitecture.
type Table1 struct {
	Arch  Microarch
	Model string
	Kinds []string
	Cells [][]Table1Cell
}

// Table1Options tunes the experiment.
type Table1Options struct {
	// Context, when non-nil, bounds the run: every cell's machine binds
	// to it, so cancellation or a deadline stops the matrix at the next
	// machine run. Nil means unbounded.
	Context context.Context
	Seed    int64
	Trials  int     // see Table1Trials
	Noise   float64 // 0 = noiseless (lab conditions, as in Section 5)
}

// CheckTable1Noise rejects a Table 1 noise level that is not a number a
// machine can run at: NaN, +Inf or -Inf. RunTable1 and the served
// request's Normalize, which the CLI shares, both refuse through it, so
// they refuse with one message.
func CheckTable1Noise(noise float64) error {
	if math.IsNaN(noise) || math.IsInf(noise, 0) {
		return fmt.Errorf("noise %v is not a finite number", noise)
	}
	return nil
}

// RunTable1 reproduces Table 1 for one microarchitecture: all asymmetric
// training/victim branch-type combinations, measured through the
// IF (I-cache timing), ID (µop-cache counters) and EX (D-cache timing)
// observation channels.
func RunTable1(arch Microarch, opts Table1Options) (*Table1, error) {
	trials, err := Table1Trials.Resolve(opts.Trials)
	if err != nil {
		return nil, err
	}
	if err := CheckTable1Noise(opts.Noise); err != nil {
		return nil, err
	}
	p, err := arch.profile()
	if err != nil {
		return nil, err
	}
	res, err := core.RunMatrix(opts.Context, p, core.MatrixConfig{Seed: opts.Seed, Trials: trials, Noise: opts.Noise})
	if err != nil {
		return nil, err
	}
	out := &Table1{Arch: arch, Model: arch.ModelName()}
	for k := core.BranchKind(0); k < core.NumKinds; k++ {
		out.Kinds = append(out.Kinds, k.String())
	}
	out.Cells = make([][]Table1Cell, core.NumKinds)
	for tr := range out.Cells {
		out.Cells[tr] = make([]Table1Cell, core.NumKinds)
		for vi := range out.Cells[tr] {
			c := res.Cells[tr][vi]
			out.Cells[tr][vi] = Table1Cell{
				Training: c.Training.String(),
				Victim:   c.Victim.String(),
				Excluded: c.Status == core.CellSymmetric,
				Note:     c.Note,
				Reach:    c.Reach,
			}
		}
	}
	return out, nil
}

// String renders the matrix like the paper's Table 1.
func (t *Table1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — %s (%s)\n", t.Model, t.Arch)
	fmt.Fprintf(&b, "%-12s", "trn\\victim")
	for _, k := range t.Kinds {
		fmt.Fprintf(&b, "%-12s", k)
	}
	b.WriteString("\n")
	for tr, row := range t.Cells {
		fmt.Fprintf(&b, "%-12s", t.Kinds[tr])
		for _, c := range row {
			s := c.Reach.String()
			if c.Excluded {
				s = "(sym)"
			}
			fmt.Fprintf(&b, "%-12s", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig6Point is one x-position of Figure 6.
type Fig6Point struct {
	Offset uint64
	Hits   int
	Misses int
}

// Fig6Series is the Figure 6 sweep for one microarchitecture.
type Fig6Series struct {
	Arch   Microarch
	Points []Fig6Point
	// SeriesOffset is the page offset whose µop-cache set the jmp-series
	// primes (0xac0 in the paper's figure).
	SeriesOffset uint64
}

// RunFig6Sweep reproduces Figure 6 (detecting speculative decode) on
// each microarchitecture — the paper plots Zen 2 and Zen 4 — fanning the
// per-arch jobs over a worker pool of the given size (0 = GOMAXPROCS).
// The series come back in archs order, identical for every pool size.
// ctx bounds the sweep like an options struct's Context: nil means
// unbounded.
func RunFig6Sweep(ctx context.Context, archs []Microarch, seed int64, jobs int) ([]*Fig6Series, error) {
	return sweepJobs(ctx, "fig6", len(archs), jobs, func(ctx context.Context, i int) (*Fig6Series, error) {
		p, err := archs[i].profile()
		if err != nil {
			return nil, err
		}
		pts, err := core.RunFig6(ctx, p, core.Fig6Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		s := &Fig6Series{Arch: archs[i], SeriesOffset: core.Fig6SeriesOffset}
		for _, pt := range pts {
			s.Points = append(s.Points, Fig6Point{Offset: pt.Offset, Hits: pt.Hits, Misses: pt.Misses})
		}
		return s, nil
	})
}

// String renders an ASCII version of Figure 6 (misses per page offset).
func (s *Fig6Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %s: µop-cache misses after victim run, by page offset of C\n", s.Arch.ModelName())
	for _, p := range s.Points {
		bar := strings.Repeat("#", p.Misses)
		marker := ""
		if p.Offset == s.SeriesOffset {
			marker = "  <- jmp-series set"
		}
		if p.Misses > 0 || p.Offset%0x100 == 0 {
			fmt.Fprintf(&b, "  %#06x  %-10s misses=%d hits=%d%s\n", p.Offset, bar, p.Misses, p.Hits, marker)
		}
	}
	return b.String()
}

// Fig7 is the cross-privilege BTB function recovery of Section 6.2.
type Fig7 struct {
	Arch Microarch
	// BruteForceFound reports whether flipping <= bruteForceFlips bits
	// produced any collision (true on Zen 1/2, false on Zen 3/4 — why the
	// paper moved to a solver).
	BruteForceFound  bool
	BruteForceMask   uint64
	BruteForceTested int
	// Samples/Batches quantify the random-collision sampling.
	Samples, Batches int
	// Functions are the recovered XOR functions involving bit 47,
	// rendered like Figure 7.
	Functions []string
	// TagOverlaps are the recovered weight-2 relations (b12⊕b16, b13⊕b17).
	TagOverlaps []string
	// ExampleMask is an observed cross-privilege collision pattern.
	ExampleMask uint64
}

// bruteForceFlips bounds the brute-force stage: it tries every pattern
// of at most this many flipped bits, b47 included.
const bruteForceFlips = 4

// Fig7Options tunes the recovery.
type Fig7Options struct {
	// Context, when non-nil, bounds the recovery: both stages' machines
	// bind to it. Nil means unbounded.
	Context     context.Context
	Seed        int64
	Samples     int // see Fig7Samples
	MaxBatches  int
	BruteBudget int // candidate limit for the brute-force stage; 0 = 20000
	Jobs        int // worker pool for RunFig7Sweep; 0 = GOMAXPROCS
}

// RunFig7Sweep runs the Figure 7 recovery on several microarchitectures
// in parallel (opts.Jobs workers), returning results in archs order.
func RunFig7Sweep(archs []Microarch, opts Fig7Options) ([]*Fig7, error) {
	var err error
	if opts.Samples, err = Fig7Samples.Resolve(opts.Samples); err != nil {
		return nil, err
	}
	return sweepJobs(opts.Context, "fig7", len(archs), opts.Jobs, func(ctx context.Context, i int) (*Fig7, error) {
		o := opts
		o.Context = ctx
		return RunFig7(archs[i], o)
	})
}

// RunFig7 reproduces the Section 6.2 methodology on one microarchitecture:
// brute force first, then batched random-collision sampling plus GF(2)
// recovery of the index functions (the paper's Z3 step, solved exactly).
func RunFig7(arch Microarch, opts Fig7Options) (*Fig7, error) {
	samples, err := Fig7Samples.Resolve(opts.Samples)
	if err != nil {
		return nil, err
	}
	p, err := arch.profile()
	if err != nil {
		return nil, err
	}
	if opts.BruteBudget == 0 {
		opts.BruteBudget = 20000
	}
	// Each stage runs on its own noiseless boot at the seed, the second
	// on the machine the first used.
	boots := core.NoiselessReboots(opts.Context, p, opts.Seed)
	bf, err := core.BruteForceCollisions(boots, bruteForceFlips, opts.BruteBudget)
	if err != nil {
		return nil, err
	}
	rec, err := core.RecoverBTBFunctions(boots, samples, opts.MaxBatches)
	if err != nil {
		return nil, err
	}
	out := &Fig7{
		Arch:             arch,
		BruteForceFound:  bf.Found,
		BruteForceMask:   bf.Mask,
		BruteForceTested: bf.Tested,
		Samples:          rec.Samples,
		Batches:          rec.Batches,
		ExampleMask:      rec.ExampleMask,
	}
	for _, f := range rec.B47Functions {
		out.Functions = append(out.Functions, f.String())
	}
	for _, f := range rec.TagOverlaps {
		out.TagOverlaps = append(out.TagOverlaps, f.String())
	}
	return out, nil
}

// String renders the recovery like Figure 7.
func (f *Fig7) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — BTB function recovery on %s\n", f.Arch.ModelName())
	if f.BruteForceFound {
		fmt.Fprintf(&b, "  brute force (<=%d-bit flips): pattern %#x after %d candidates\n",
			bruteForceFlips, f.BruteForceMask, f.BruteForceTested)
	} else {
		fmt.Fprintf(&b, "  brute force: no collision in %d candidates (as the paper found on Zen 3)\n",
			f.BruteForceTested)
	}
	fmt.Fprintf(&b, "  sampling: %d collisions in %d victim runs\n", f.Samples, f.Batches)
	for i, fn := range f.Functions {
		fmt.Fprintf(&b, "  f%-2d = %s\n", i, fn)
	}
	for _, fn := range f.TagOverlaps {
		fmt.Fprintf(&b, "  overlap: %s\n", fn)
	}
	if f.ExampleMask != 0 {
		fmt.Fprintf(&b, "  example collision: K ^ %#x\n", f.ExampleMask)
	}
	return b.String()
}

// Table2Row is one covert-channel measurement.
type Table2Row struct {
	Arch        Microarch
	Model       string
	AccuracyPct float64 // median over runs
	BitsPerSec  float64 // median over runs
	Runs        int
}

// Table2Options tunes the covert-channel experiment.
type Table2Options struct {
	// Context, when non-nil, bounds the sweep: every (arch, run) job's
	// machine binds to it, so cancellation or a deadline stops running
	// jobs too. Nil means unbounded.
	Context context.Context
	Seed    int64
	Bits    int // see Table2Bits
	Runs    int // see Table2Runs
	Jobs    int // parallel (arch, run) workers; 0 = GOMAXPROCS, 1 = sequential
}

// RunTable2Fetch reproduces Table 2 (top): the P1 fetch covert channel on
// the given microarchitectures.
func RunTable2Fetch(archs []Microarch, opts Table2Options) ([]Table2Row, error) {
	return runTable2(archs, opts, core.RunCovertFetch)
}

// RunTable2Execute reproduces Table 2 (bottom): the P2 execute covert
// channel (only AMD Zen 1/2 carry a signal).
func RunTable2Execute(archs []Microarch, opts Table2Options) ([]Table2Row, error) {
	return runTable2(archs, opts, core.RunCovertExecute)
}

func runTable2(archs []Microarch, opts Table2Options,
	run func(k *kernel.Kernel, cfg core.CovertConfig) (*core.CovertResult, error)) ([]Table2Row, error) {
	var err error
	if opts.Runs, err = Table2Runs.Resolve(opts.Runs); err != nil {
		return nil, err
	}
	if opts.Bits, err = Table2Bits.Resolve(opts.Bits); err != nil {
		return nil, err
	}
	// Fan the (arch, run) grid over the worker pool. Each job boots an
	// independent channel with an arithmetically derived seed, so results
	// depend only on the job index and the parallel table is identical to
	// the sequential one.
	type sample struct{ acc, rate float64 }
	samples, err := rebootGrid(opts.Context, "table2", archConfigs(archs), opts.Runs, opts.Jobs,
		func(r int) int64 { return opts.Seed + int64(r)*101 },
		func(sys *System) (sample, error) {
			res, err := run(sys.k, core.CovertConfig{Bits: opts.Bits})
			if err != nil {
				return sample{}, err
			}
			return sample{acc: res.Accuracy.Percent(), rate: res.BitsPerSecond}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for ai, arch := range archs {
		var accs, rates []float64
		for _, s := range samples[ai] {
			accs = append(accs, s.acc)
			rates = append(rates, s.rate)
		}
		rows = append(rows, Table2Row{
			Arch:        arch,
			Model:       arch.ModelName(),
			AccuracyPct: stats.Median(accs),
			BitsPerSec:  stats.Median(rates),
			Runs:        opts.Runs,
		})
	}
	return rows, nil
}

// FormatTable2 renders covert-channel rows like Table 2.
func FormatTable2(title string, rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (median of %d runs)\n", title, rowsRuns(rows))
	fmt.Fprintf(&b, "  %-8s %-24s %-10s %s\n", "µarch", "Model", "Accuracy", "Rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %-24s %-10.2f %.0f bits/s\n", r.Arch, r.Model, r.AccuracyPct, r.BitsPerSec)
	}
	return b.String()
}

func rowsRuns(rows []Table2Row) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Runs
}

// DerandRow is one KASLR-derandomization result row (Tables 3, 4, 5).
type DerandRow struct {
	Arch          Microarch
	Model         string
	AccuracyPct   float64
	MedianSeconds float64 // simulated seconds
	Runs          int
	// Memory annotates the Table 5 rows (installed physical memory).
	Memory string
}

// DerandOptions tunes the multi-run derandomization experiments.
type DerandOptions struct {
	// Context, when non-nil, bounds the sweep: every reboot's system
	// binds to it, so cancellation or a deadline stops running reboots
	// mid-attack too. Nil means unbounded.
	Context context.Context
	Seed    int64
	Runs    int // reboots; see Table3Runs, Table4Runs and Table5Runs
	Jobs    int // parallel (arch, reboot) workers; 0 = GOMAXPROCS, 1 = sequential
}

// derandRun is one reboot's outcome inside a Table 3-5 sweep.
type derandRun struct {
	correct bool
	seconds float64
}

// foldDerand reduces one config's reboot outcomes to a table row.
func foldDerand(arch Microarch, outcomes []derandRun) DerandRow {
	var acc stats.Accuracy
	times := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		acc.Add(o.correct)
		times = append(times, o.seconds)
	}
	return DerandRow{
		Arch: arch, Model: arch.ModelName(),
		AccuracyPct:   acc.Percent(),
		MedianSeconds: stats.Median(times),
		Runs:          len(outcomes),
	}
}

// RunTable3 reproduces Table 3: kernel-image KASLR derandomization with
// P1, rebooting (re-randomizing) before each run.
func RunTable3(archs []Microarch, opts DerandOptions) ([]DerandRow, error) {
	var err error
	if opts.Runs, err = Table3Runs.Resolve(opts.Runs); err != nil {
		return nil, err
	}
	grouped, err := rebootGrid(opts.Context, "table3", archConfigs(archs), opts.Runs, opts.Jobs,
		func(r int) int64 { return opts.Seed + int64(r)*31 },
		func(sys *System) (derandRun, error) {
			res, err := sys.BreakImageKASLR()
			if err != nil {
				return derandRun{}, err
			}
			return derandRun{correct: res.Correct, seconds: res.Seconds}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []DerandRow
	for ai, arch := range archs {
		rows = append(rows, foldDerand(arch, grouped[ai]))
	}
	return rows, nil
}

// RunTable4 reproduces Table 4: physmap KASLR derandomization with P2 on
// AMD Zen 1/2. Each run chains from a fresh image-KASLR break.
func RunTable4(archs []Microarch, opts DerandOptions) ([]DerandRow, error) {
	var err error
	if opts.Runs, err = Table4Runs.Resolve(opts.Runs); err != nil {
		return nil, err
	}
	grouped, err := rebootGrid(opts.Context, "table4", archConfigs(archs), opts.Runs, opts.Jobs,
		func(r int) int64 { return opts.Seed + int64(r)*37 },
		func(sys *System) (derandRun, error) {
			img, err := sys.BreakImageKASLR()
			if err != nil {
				return derandRun{}, err
			}
			res, err := sys.BreakPhysmapKASLR(img.Guess)
			if err != nil {
				return derandRun{}, err
			}
			return derandRun{correct: res.Correct, seconds: res.Seconds}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []DerandRow
	for ai, arch := range archs {
		rows = append(rows, foldDerand(arch, grouped[ai]))
	}
	return rows, nil
}

// table5Configs are the paper's Table 5 machines.
var table5Configs = []rebootConfig{
	{Zen1, 8 << 30},
	{Zen2, 64 << 30},
}

// RunTable5 reproduces Table 5: finding the physical address of an
// attacker page, on the paper's memory configurations (8 GB Zen 1, 64 GB
// Zen 2).
func RunTable5(opts DerandOptions) ([]DerandRow, error) {
	var err error
	if opts.Runs, err = Table5Runs.Resolve(opts.Runs); err != nil {
		return nil, err
	}
	grouped, err := rebootGrid(opts.Context, "table5", table5Configs, opts.Runs, opts.Jobs,
		func(r int) int64 { return opts.Seed + int64(r)*41 },
		func(sys *System) (derandRun, error) {
			img, err := sys.BreakImageKASLR()
			if err != nil {
				return derandRun{}, err
			}
			pm, err := sys.BreakPhysmapKASLR(img.Guess)
			if err != nil {
				return derandRun{}, err
			}
			if pm.Guess == 0 {
				// The physmap stage found no signal this boot; the chain
				// cannot continue, which counts as a failed run.
				return derandRun{correct: false, seconds: pm.Seconds}, nil
			}
			res, err := sys.FindPhysAddr(img.Guess, pm.Guess)
			if err != nil {
				return derandRun{}, err
			}
			return derandRun{correct: res.Correct, seconds: res.Seconds}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []DerandRow
	for ci, c := range table5Configs {
		row := foldDerand(c.arch, grouped[ci])
		row.Memory = fmt.Sprintf("%d GB", c.physBytes>>30)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatDerand renders derandomization rows like Tables 3-5.
func FormatDerand(title string, rows []DerandRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-8s %-24s %-8s %-10s %s\n", "µarch", "Model", "Memory", "Accuracy", "Median time (sim)")
	for _, r := range rows {
		mem := r.Memory
		if mem == "" {
			mem = "-"
		}
		fmt.Fprintf(&b, "  %-8s %-24s %-8s %-10.0f %.4f s\n", r.Arch, r.Model, mem, r.AccuracyPct, r.MedianSeconds)
	}
	return b.String()
}

// MDSReport is the Section 7.4 experiment outcome.
type MDSReport struct {
	Arch           Microarch
	Runs           int
	SignalRuns     int // runs with any signal (the paper saw 8 of 10)
	AccuracyPct    float64
	MedianBytesSec float64
}

// MDSOptions tunes the Section 7.4 experiment.
type MDSOptions struct {
	// Context, when non-nil, bounds the sweep: every reboot's system
	// binds to it, so cancellation or a deadline stops running reboots
	// mid-leak too. Nil means unbounded.
	Context context.Context
	Seed    int64
	Runs    int // see MDSRuns
	Bytes   int // see MDSBytes
	Jobs    int // parallel reboot workers; 0 = GOMAXPROCS, 1 = sequential
}

// RunMDSExperiment reproduces Section 7.4: leaking the planted kernel
// secret through the Listing 4 MDS gadget, across repeated reboots. A
// reboot whose exploit chain fails outright (the paper saw signal in
// only 8 of 10 runs) counts as a no-signal run rather than aborting the
// sweep, so any seed yields a report. A cancelled reboot is not a run:
// its error fails the experiment.
func RunMDSExperiment(arch Microarch, opts MDSOptions) (*MDSReport, error) {
	var err error
	if opts.Runs, err = MDSRuns.Resolve(opts.Runs); err != nil {
		return nil, err
	}
	if opts.Bytes, err = MDSBytes.Resolve(opts.Bytes); err != nil {
		return nil, err
	}
	rep := &MDSReport{Arch: arch, Runs: opts.Runs}
	type leakRun struct {
		acc, rate float64
	}
	grouped, err := rebootGrid(opts.Context, "mds", archConfigs([]Microarch{arch}), opts.Runs, opts.Jobs,
		func(r int) int64 { return opts.Seed + int64(r)*43 },
		func(sys *System) (leakRun, error) {
			res, err := sys.LeakKernelMemory(sys.k.SecretVA, opts.Bytes)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return leakRun{}, err // cancelled mid-leak: no outcome at all
				}
				// The chain failed on this boot (no physmap signal, reload
				// buffer not recovered, ...): a zero-signal run.
				return leakRun{}, nil
			}
			return leakRun{acc: res.AccuracyPct, rate: res.BytesPerSecond}, nil
		})
	if err != nil {
		return nil, err
	}
	var accs, rates []float64
	for _, o := range grouped[0] {
		if o.acc > 0 {
			rep.SignalRuns++
			accs = append(accs, o.acc)
			rates = append(rates, o.rate)
		}
	}
	rep.AccuracyPct = stats.Median(accs)
	rep.MedianBytesSec = stats.Median(rates)
	return rep, nil
}

func (r *MDSReport) String() string {
	return fmt.Sprintf(
		"Section 7.4 — MDS-gadget kernel leak on %s: signal in %d/%d runs, median accuracy %.2f%%, median %.0f B/s (sim)",
		r.Arch.ModelName(), r.SignalRuns, r.Runs, r.AccuracyPct, r.MedianBytesSec)
}

// MitigationSummary mirrors the Section 6.3 / 8 evaluation.
type MitigationSummary struct {
	Arch              Microarch
	SuppressSupported bool
	BaselineReach     StageReach
	SuppressReach     StageReach
	BranchVictimReach StageReach
	OverheadPct       float64

	AutoIBRSSupported bool
	AutoIBRSLeavesIF  bool
	AutoIBRSBlocksID  bool

	IBPBBlocksPhantom bool
	IBPBOverheadPct   float64

	// The paper's hypothetical Section 8.1 in-depth fix, implemented here
	// so its coverage and cost can be measured.
	WaitForDecodeBlocksAll   bool
	WaitForDecodeOverheadPct float64
}

// RunMitigations reproduces the Section 6.3 experiments (O4, O5, the
// SuppressBPOnNonBr overhead) and the Section 8 IBPB analysis. Every
// machine it builds binds to ctx; nil means unbounded.
func RunMitigations(ctx context.Context, arch Microarch, seed int64) (*MitigationSummary, error) {
	p, err := arch.profile()
	if err != nil {
		return nil, err
	}
	rep, err := core.EvaluateMitigations(ctx, p, seed)
	if err != nil {
		return nil, err
	}
	return &MitigationSummary{
		Arch:                     arch,
		SuppressSupported:        rep.SuppressSupported,
		BaselineReach:            rep.BaselineReach,
		SuppressReach:            rep.SuppressReach,
		BranchVictimReach:        rep.BranchVictimReachWithMSR,
		OverheadPct:              rep.OverheadPct,
		AutoIBRSSupported:        rep.AutoIBRSSupported,
		AutoIBRSLeavesIF:         rep.AutoIBRSCrossPrivIF,
		AutoIBRSBlocksID:         !rep.AutoIBRSCrossPrivID,
		IBPBBlocksPhantom:        rep.IBPBBlocksPhantom,
		IBPBOverheadPct:          rep.IBPBOverheadPct,
		WaitForDecodeBlocksAll:   !rep.WaitForDecodeReach.IF && !rep.WaitForDecodeReach.ID && !rep.WaitForDecodeReach.EX,
		WaitForDecodeOverheadPct: rep.WaitForDecodeOverheadPct,
	}, nil
}

func (m *MitigationSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mitigations — %s\n", m.Arch.ModelName())
	fmt.Fprintf(&b, "  SuppressBPOnNonBr supported: %v\n", m.SuppressSupported)
	fmt.Fprintf(&b, "    non-branch victim: %v -> %v with MSR set (O4)\n", m.BaselineReach, m.SuppressReach)
	if m.SuppressSupported {
		fmt.Fprintf(&b, "    branch victim with MSR set: %v\n", m.BranchVictimReach)
		fmt.Fprintf(&b, "    benchmark overhead: %.2f%%\n", m.OverheadPct)
	}
	if m.AutoIBRSSupported {
		fmt.Fprintf(&b, "  AutoIBRS: IF persists=%v (O5), ID blocked=%v\n", m.AutoIBRSLeavesIF, m.AutoIBRSBlocksID)
	}
	fmt.Fprintf(&b, "  IBPB on kernel entry blocks Phantom: %v (syscall cost +%.0f%%)\n",
		m.IBPBBlocksPhantom, m.IBPBOverheadPct)
	fmt.Fprintf(&b, "  hypothetical wait-for-decode frontend (§8.1): blocks all stages=%v, overhead %.2f%%\n",
		m.WaitForDecodeBlocksAll, m.WaitForDecodeOverheadPct)
	return b.String()
}
