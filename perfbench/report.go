package main

import (
	"bytes"
	"fmt"
	"strings"

	"phantom"
)

// report: phantom.GenerateReport — every section on every modelled
// part, the 64 GB Table 5 configuration included — on a pool of
// GOMAXPROCS workers, with reportRuns runs per multi-run table. This is
// the headline end-to-end number; attack loops dominate it.

// reportRuns is the runs per multi-run table (Tables 3-5, the MDS leak)
// in one report. The default, 10, takes 7-8 s on a 2-core box, so a run
// measured only two or three reports and its median moved by a third
// between runs; at 2 a report takes about 2 s.
const reportRuns = 2

// reportSlugs name phantom.ReportSectionTitles in the per-layer metrics
// (report.<slug>_s), in the same order.
var reportSlugs = []string{"table1", "fig6", "table2", "derand", "mds", "spectrev2", "mitigations"}

type reportBench struct {
	opts phantom.ReportOptions // for input 0; input k reports at Seed+k
	out  outputs
}

func setupReport(e env) (bench, error) {
	b := &reportBench{opts: phantom.ReportOptions{Seed: e.seed, Runs: reportRuns}, out: newOutputs("report", !e.probe)}
	if e.probe {
		// One run per multi-run table, one part per per-arch section.
		b.opts.Runs, b.opts.Bits = 1, 64
		b.opts.Archs = []phantom.Microarch{phantom.Zen2}
		b.opts.MitigationArchs = []phantom.Microarch{phantom.Zen2}
	}
	if n := len(phantom.ReportSectionTitles()); n != len(reportSlugs) {
		return nil, fmt.Errorf("report has %d sections, the benchmark names %d", n, len(reportSlugs))
	}
	// Let lazy set-up finish before timing: one boot per modelled part.
	for _, a := range phantom.AllMicroarchs() {
		if _, err := phantom.NewSystem(a, phantom.SystemConfig{Seed: e.seed}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *reportBench) unit(m *meter, input int) (unitResult, error) {
	o := b.opts
	o.Seed += int64(input)
	var buf bytes.Buffer
	m.start()
	err := phantom.GenerateReport(&buf, o)
	m.stop()
	if err != nil {
		return unitResult{}, err
	}
	text := buf.String()
	r := unitResult{items: 1, attempted: 1, sums: map[int64]string{o.Seed: digest(text)}}
	if !b.out.accept(o.Seed, text) {
		r.failed = 1
	}
	return r, nil
}

// kernelSections are the report sections whose machines are all kernel
// boots; Table 1, Figure 6 and the Spectre-V2 baseline run user-space
// machines without a kernel (Sections 5 and 6 need none).
var kernelSections = map[string]bool{"table2": true, "derand": true, "mds": true, "mitigations": true}

// traced renders the report one GenerateReportSection call per section
// — whose concatenation must be the untraced report after its preamble —
// counting the kernel boots of the sections that boot one per machine.
// Then it boots every modelled part through phantom.NewSystem, one span
// each, and times the exploit chain step by step.
func (b *reportBench) traced(m *meter, tr *tracer, root int) (unitResult, layerVals, simCounts, error) {
	var buf bytes.Buffer
	var boots uint64
	c0 := hubCounts()
	m.start()
	for i, title := range phantom.ReportSectionTitles() {
		s0 := hubCounts()
		sp := tr.begin("report."+reportSlugs[i], root)
		err := phantom.GenerateReportSection(&buf, title, b.opts)
		tr.end(sp)
		if err != nil {
			m.stop()
			return unitResult{}, nil, simCounts{}, err
		}
		if kernelSections[reportSlugs[i]] {
			boots += hubCounts().sub(s0).Machines
		}
	}
	m.stop()
	sim := hubCounts().sub(c0)
	r := unitResult{items: 1, attempted: 1}
	if want, ok := b.out.first[b.opts.Seed]; ok && !strings.HasSuffix(want, buf.String()) {
		r.failed = 1
	}

	for _, a := range phantom.AllMicroarchs() {
		sp := tr.begin("kernel.boot", root)
		_, err := phantom.NewSystem(a, phantom.SystemConfig{Seed: b.opts.Seed})
		tr.end(sp)
		if err != nil {
			return r, nil, sim, err
		}
	}
	alloc, err := allocPerCall(bootAllocBoots, func(i int) error {
		_, err := phantom.NewSystem(phantom.Zen2, phantom.SystemConfig{Seed: b.opts.Seed + int64(i)})
		return err
	})
	if err != nil {
		return r, nil, sim, err
	}
	vals, err := b.chain(tr, root)
	if err != nil {
		return r, nil, sim, err
	}
	vals["kernel.boots"] = float64(boots)
	vals["kernel.boot_alloc_mb"] = float64(alloc) / 1e6
	return r, vals, sim, nil
}

// chain runs the Section 7 exploit chain on a Zen 2 boot, one span per
// step. The leak step re-derives the bases itself, so its span covers
// the whole chain again plus the leak; a leak that finds no signal is
// a result, as in RunMDSExperiment. A boot on which the KASLR breaks
// find no candidate (the paper's success rates are below 100%) moves
// on to the next seed, so the same four steps are always measured.
func (b *reportBench) chain(tr *tracer, parent int) (layerVals, error) {
	root := tr.begin("report.chain", parent)
	defer tr.end(root)
	for s := b.opts.Seed; s < b.opts.Seed+16; s++ {
		sp := tr.begin("phantom.new_system", root)
		sys, err := phantom.NewSystem(phantom.Zen2, phantom.SystemConfig{Seed: s})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c0 := hubCounts()
		sp = tr.begin("core.image_kaslr", root)
		img, err := sys.BreakImageKASLR()
		t1 := tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("core.physmap_kaslr", root)
		pm, err := sys.BreakPhysmapKASLR(img.Guess)
		t2 := tr.end(sp)
		if err != nil {
			return nil, err
		}
		if img.Guess == 0 || pm.Guess == 0 {
			continue
		}
		sp = tr.begin("core.physaddr", root)
		_, err = sys.FindPhysAddr(img.Guess, pm.Guess)
		t3 := tr.end(sp)
		if err != nil {
			return nil, err
		}
		instr := hubCounts().sub(c0).Instructions
		secretVA, _ := sys.SecretAddr()
		sp = tr.begin("core.mds_leak", root)
		_, _ = sys.LeakKernelMemory(secretVA, 64) // no signal is an outcome, not a failure
		tr.end(sp)
		return layerVals{"pipeline.ns_per_instr": float64((t1 + t2 + t3).Nanoseconds()) / float64(instr)}, nil
	}
	return nil, fmt.Errorf("KASLR breaks found no candidate on 16 consecutive boots from seed %d", b.opts.Seed)
}

func (b *reportBench) close() error { return nil }
