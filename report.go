package phantom

import (
	"context"
	"fmt"
	"io"

	"phantom/internal/core"
)

// ReportOptions controls GenerateReport's scale.
type ReportOptions struct {
	// Context, when non-nil, bounds the generation: every section's
	// machines bind to it, so cancellation or a deadline stops the
	// section running. Nil means unbounded.
	Context context.Context
	Seed    int64
	// Runs per derandomization experiment; see ReportRuns.
	Runs int
	// Bits per covert-channel run; see ReportBits.
	Bits int
	// Jobs sizes the worker pool every section's sweep runs on; 0 =
	// GOMAXPROCS, 1 = the sequential path. The report text is identical
	// for every pool size.
	Jobs int
	// Archs to cover in the Table 1 section; nil = all eight.
	Archs []Microarch
	// MitigationArchs to evaluate in the mitigation section; nil = all
	// AMD parts.
	MitigationArchs []Microarch
}

// withDefaults resolves the counts and fills the nil arch lists.
func (o ReportOptions) withDefaults() (ReportOptions, error) {
	var err error
	if o.Runs, err = ReportRuns.Resolve(o.Runs); err != nil {
		return o, err
	}
	if o.Bits, err = ReportBits.Resolve(o.Bits); err != nil {
		return o, err
	}
	if o.Archs == nil {
		o.Archs = AllMicroarchs()
	}
	if o.MitigationArchs == nil {
		o.MitigationArchs = AMDMicroarchs()
	}
	return o, nil
}

// paperRef holds the published value a measured row is compared against.
type paperRef struct {
	label string
	paper string
}

// reportSection is one independently renderable unit of the report. Each
// section computes its per-arch results on the worker pool, then writes
// them in arch order, so the document is byte-identical to a fully
// sequential generation.
type reportSection struct {
	Title string
	write func(w io.Writer, opts ReportOptions) error
}

// reportSections lists the report body in document order.
func reportSections() []reportSection {
	return []reportSection{
		{"Table 1 — training×victim matrix", writeTable1Section},
		{"Figure 6 — speculative decode", writeFig6Section},
		{"Table 2 — covert channels", writeTable2Section},
		{"Tables 3-5 — derandomization", writeDerandSections},
		{"Section 7.4 — MDS-gadget kernel leak (Zen 2)", writeMDSSection},
		{"Conventional Spectre-V2 baseline", writeSpectreV2Section},
		{"Mitigations (Sections 6.3, 8)", writeMitigationSection},
	}
}

// ReportSectionTitles lists the section headings GenerateReport emits, in
// order, for callers (and tests) that render sections individually.
func ReportSectionTitles() []string {
	var out []string
	for _, s := range reportSections() {
		out = append(out, s.Title)
	}
	return out
}

// GenerateReportSection renders the single section with the given title
// (as listed by ReportSectionTitles), heading included, without the
// document preamble. Sections are self-contained, so a pinned-seed golden
// of one section stays stable while the rest of the report evolves.
func GenerateReportSection(w io.Writer, title string, opts ReportOptions) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	for _, s := range reportSections() {
		if s.Title != title {
			continue
		}
		fmt.Fprintf(w, "## %s\n\n", s.Title)
		return s.write(w, opts)
	}
	return fmt.Errorf("unknown report section %q", title)
}

// GenerateReport runs the evaluation and writes a self-contained Markdown
// document comparing measured values with the paper's published ones —
// the EXPERIMENTS.md content, regenerated live. Expect a few minutes at
// default scale.
func GenerateReport(w io.Writer, opts ReportOptions) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "# Phantom reproduction report\n\n")
	fmt.Fprintf(w, "Seed %d, %d runs per derandomization experiment, %d bits per covert run.\n",
		opts.Seed, opts.Runs, opts.Bits)
	fmt.Fprintf(w, "All times and rates are simulated (nominal 3 GHz); see EXPERIMENTS.md for the\n")
	fmt.Fprintf(w, "scale discussion. Paper columns quote MICRO '23 Tables 1-5 and Sections 6-8.\n\n")

	for _, s := range reportSections() {
		fmt.Fprintf(w, "## %s\n\n", s.Title)
		if err := s.write(w, opts); err != nil {
			return fmt.Errorf("section %q: %w", s.Title, err)
		}
	}
	return nil
}

func writeTable1Section(w io.Writer, opts ReportOptions) error {
	tables, err := sweepJobs(opts.Context, "report_table1", len(opts.Archs), opts.Jobs, func(ctx context.Context, i int) (*Table1, error) {
		return RunTable1(opts.Archs[i], Table1Options{Context: ctx, Seed: opts.Seed, Trials: 4})
	})
	if err != nil {
		return err
	}
	for _, tb := range tables {
		fmt.Fprintf(w, "```\n%s```\n\n", tb)
	}
	fmt.Fprintf(w, "Paper: EX on Zen 1/2 only (O3); IF+ID elsewhere (O1, O2); jmp*-victim\n")
	fmt.Fprintf(w, "anomalies on Intel; SLS on AMD (footnote c).\n\n")
	return nil
}

func writeFig6Section(w io.Writer, opts ReportOptions) error {
	fig6Archs := []Microarch{Zen2, Zen4}
	series, err := RunFig6Sweep(opts.Context, fig6Archs, opts.Seed, opts.Jobs)
	if err != nil {
		return err
	}
	for fi, arch := range fig6Archs {
		s := series[fi]
		spike, clean := 0, 0
		for _, pt := range s.Points {
			if pt.Offset>>6 == s.SeriesOffset>>6 {
				spike += pt.Misses
			} else {
				clean += pt.Misses
			}
		}
		fmt.Fprintf(w, "- %s: %d misses at the matching offset (%#x), %d elsewhere (paper: single spike)\n",
			arch.ModelName(), spike, s.SeriesOffset, clean)
	}
	fmt.Fprintf(w, "\n")
	return nil
}

func writeTable2Section(w io.Writer, opts ReportOptions) error {
	t2opts := Table2Options{Context: opts.Context, Seed: opts.Seed, Bits: opts.Bits, Runs: min(opts.Runs, Table2Runs.Paper), Jobs: opts.Jobs}
	fetchRows, err := RunTable2Fetch(AMDMicroarchs(), t2opts)
	if err != nil {
		return err
	}
	fetchPaper := []paperRef{
		{"zen1", "96.30% / 204 b/s"}, {"zen2", "93.04% / 215 b/s"},
		{"zen3", "100% / 256 b/s"}, {"zen4", "90.67% / 341 b/s"},
	}
	writeCovertSection(w, "Fetch (P1)", fetchRows, fetchPaper)
	execRows, err := RunTable2Execute([]Microarch{Zen1, Zen2}, t2opts)
	if err != nil {
		return err
	}
	execPaper := []paperRef{
		{"zen1", "100% / 256 b/s"}, {"zen2", "99.28% / 292 b/s"},
	}
	writeCovertSection(w, "Execute (P2)", execRows, execPaper)
	return nil
}

func writeDerandSections(w io.Writer, opts ReportOptions) error {
	t3, err := RunTable3([]Microarch{Zen2, Zen3, Zen4}, DerandOptions{Context: opts.Context, Seed: opts.Seed, Runs: opts.Runs, Jobs: opts.Jobs})
	if err != nil {
		return err
	}
	writeDerandSection(w, "Kernel image KASLR (Table 3)", t3, []paperRef{
		{"zen2", "97% / 4.09 s"}, {"zen3", "100% / 1.38 s"}, {"zen4", "95% / 1.23 s"},
	})
	t4, err := RunTable4([]Microarch{Zen1, Zen2}, DerandOptions{Context: opts.Context, Seed: opts.Seed, Runs: min(opts.Runs, Table4Runs.Paper), Jobs: opts.Jobs})
	if err != nil {
		return err
	}
	writeDerandSection(w, "Physmap KASLR (Table 4)", t4, []paperRef{
		{"zen1", "100% / 101 s"}, {"zen2", "90% / 106.5 s"},
	})
	t5, err := RunTable5(DerandOptions{Context: opts.Context, Seed: opts.Seed, Runs: opts.Runs, Jobs: opts.Jobs})
	if err != nil {
		return err
	}
	writeDerandSection(w, "Physical address (Table 5)", t5, []paperRef{
		{"zen1", "99% / 1 s"}, {"zen2", "100% / 16 s"},
	})
	return nil
}

func writeMDSSection(w io.Writer, opts ReportOptions) error {
	mds, err := RunMDSExperiment(Zen2, MDSOptions{Context: opts.Context, Seed: opts.Seed, Runs: min(opts.Runs, MDSRuns.Paper), Bytes: 1024, Jobs: opts.Jobs})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "- measured: signal in %d/%d runs, median accuracy %.2f%%, %.0f B/s (sim)\n",
		mds.SignalRuns, mds.Runs, mds.AccuracyPct, mds.MedianBytesSec)
	fmt.Fprintf(w, "- paper: signal in 8/10 runs, 100%% accuracy, 84 B/s\n\n")
	return nil
}

func writeSpectreV2Section(w io.Writer, opts ReportOptions) error {
	v2Archs := []Microarch{Zen2, Zen4, Intel13}
	v2s, err := sweepJobs(opts.Context, "report_spectrev2", len(v2Archs), opts.Jobs, func(ctx context.Context, i int) (*core.SpectreV2Result, error) {
		p, err := v2Archs[i].profile()
		if err != nil {
			return nil, err
		}
		return core.RunSpectreV2(ctx, p, opts.Seed, 32)
	})
	if err != nil {
		return err
	}
	for _, v2 := range v2s {
		fmt.Fprintf(w, "- %s\n", v2)
	}
	fmt.Fprintf(w, "\nThe backend-resolved window works everywhere — the contrast that makes\n")
	fmt.Fprintf(w, "Phantom's short frontend-resteered windows the interesting case.\n\n")
	return nil
}

func writeMitigationSection(w io.Writer, opts ReportOptions) error {
	mits, err := sweepJobs(opts.Context, "report_mitigations", len(opts.MitigationArchs), opts.Jobs, func(ctx context.Context, i int) (*MitigationSummary, error) {
		return RunMitigations(ctx, opts.MitigationArchs[i], opts.Seed)
	})
	if err != nil {
		return err
	}
	for _, m := range mits {
		fmt.Fprintf(w, "```\n%s```\n\n", m)
	}
	fmt.Fprintf(w, "Paper: O4 (SuppressBPOnNonBr leaves IF/ID), O5 (AutoIBRS leaves IF),\n")
	fmt.Fprintf(w, "0.69%% UnixBench overhead for SuppressBPOnNonBr on Zen 2.\n")
	return nil
}

func writeCovertSection(w io.Writer, title string, rows []Table2Row, refs []paperRef) {
	fmt.Fprintf(w, "### %s\n\n", title)
	fmt.Fprintf(w, "| µarch | measured accuracy | measured rate (sim) | paper |\n|---|---|---|---|\n")
	for i, r := range rows {
		paper := "—"
		if i < len(refs) {
			paper = refs[i].paper
		}
		fmt.Fprintf(w, "| %s | %.2f%% | %.0f b/s | %s |\n", r.Arch, r.AccuracyPct, r.BitsPerSec, paper)
	}
	fmt.Fprintf(w, "\n")
}

func writeDerandSection(w io.Writer, title string, rows []DerandRow, refs []paperRef) {
	fmt.Fprintf(w, "### %s\n\n", title)
	fmt.Fprintf(w, "| µarch | measured accuracy | measured median (sim) | paper |\n|---|---|---|---|\n")
	for i, r := range rows {
		paper := "—"
		if i < len(refs) {
			paper = refs[i].paper
		}
		fmt.Fprintf(w, "| %s | %.0f%% | %.4f s | %s |\n", r.Arch, r.AccuracyPct, r.MedianSeconds, paper)
	}
	fmt.Fprintf(w, "\n")
}
