package main

import (
	"context"
	"fmt"
	"time"

	"phantom"
	"phantom/internal/core"
	"phantom/internal/kernel"
	"phantom/internal/stats"
	"phantom/internal/sweep"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// kaslr_reboots: Table 3 (kernel-image KASLR break) on the three parts
// the paper runs it on, with many reboots. Every job is one kernel boot
// plus one short attack, so boot cost is a large share and the sweep
// runs many small jobs.

var table3Archs = []phantom.Microarch{phantom.Zen2, phantom.Zen3, phantom.Zen4}

// Reboots per arch in one unit; a probe runs fewer. Short units (about
// 0.4 s on a 2-core box) give a run dozens of them to take the median
// of.
const (
	table3Runs      = 8
	table3ProbeRuns = 2
)

// bootAllocBoots is how many back-to-back boots measure a boot's
// allocation.
const bootAllocBoots = 3

type kaslrBench struct {
	seed int64
	runs int
	out  outputs
}

func setupKASLR(e env) (bench, error) {
	b := &kaslrBench{seed: e.seed, runs: table3Runs, out: newOutputs("kaslr_reboots", !e.probe)}
	if e.probe {
		b.runs = table3ProbeRuns
	}
	// Let lazy set-up finish before timing: one boot per part.
	for _, a := range table3Archs {
		p, err := uarch.ByName(string(a))
		if err != nil {
			return nil, err
		}
		if _, err := kernel.Boot(p, kernel.Config{Seed: e.seed, NoiseLevel: 1}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *kaslrBench) title() string {
	return fmt.Sprintf("Table 3 — kernel image KASLR via P1 (%d runs)", b.runs)
}

func (b *kaslrBench) unit(m *meter, input int) (unitResult, error) {
	seed := b.seed + int64(input)
	m.start()
	rows, err := phantom.RunTable3(table3Archs, phantom.DerandOptions{Seed: seed, Runs: b.runs})
	m.stop()
	if err != nil {
		return unitResult{}, err
	}
	text := phantom.FormatDerand(b.title(), rows)
	r := unitResult{items: len(table3Archs) * b.runs, attempted: 1, sums: map[int64]string{seed: digest(text)}}
	if !b.out.accept(seed, text) {
		r.failed = 1
	}
	return r, nil
}

// reboot is one traced job's outcome.
type reboot struct {
	correct     bool
	seconds     float64
	perf        [4]uint64 // BTB lookups, BTB hits, µop-cache hits, µop-cache misses
	attack      time.Duration
	attackInstr uint64
}

// traced is RunTable3 decomposed: the benchmark's own job function,
// run by sweep.Run, boots with kernel.Boot and attacks with
// core.BreakImageKASLR, as phantom.NewSystem and
// System.BreakImageKASLR do inside RunTable3.
func (b *kaslrBench) traced(m *meter, tr *tracer, root int) (unitResult, layerVals, simCounts, error) {
	n := len(table3Archs) * b.runs
	opts := sweep.Options{}
	if s := telemetry.Sweep("perfbench_table3", n); s != nil {
		opts.Observer = s
	}
	c0 := hubCounts()
	m.start()
	outs, err := sweep.Run(context.Background(), n, opts, func(_ context.Context, i int) (reboot, error) {
		job := tr.begin("sweep.job", root)
		defer tr.end(job)
		p, err := uarch.ByName(string(table3Archs[i/b.runs]))
		if err != nil {
			return reboot{}, err
		}
		sp := tr.begin("kernel.boot", job)
		k, err := kernel.Boot(p, kernel.Config{Seed: b.seed + int64(i%b.runs)*31, NoiseLevel: 1})
		tr.end(sp)
		if err != nil {
			return reboot{}, err
		}
		before := k.M.Perf.Instructions
		sp = tr.begin("core.image_kaslr", job)
		res, err := core.BreakImageKASLR(k, core.ImageKASLRConfig{})
		took := tr.end(sp)
		if err != nil {
			return reboot{}, err
		}
		pc := k.M.Perf
		return reboot{
			correct: res.Correct, seconds: res.Seconds, attack: took,
			attackInstr: pc.Instructions - before,
			perf:        [4]uint64{pc.BTBLookups, pc.BTBHits, pc.UopCacheHits, pc.UopCacheMisses},
		}, nil
	})
	m.stop()
	if err != nil {
		return unitResult{}, nil, simCounts{}, err
	}
	sim := hubCounts().sub(c0)

	var rows []phantom.DerandRow
	var perf [4]uint64
	var attack time.Duration
	var attackInstr uint64
	for ai, arch := range table3Archs {
		var acc stats.Accuracy
		var times []float64
		for _, o := range outs[ai*b.runs : (ai+1)*b.runs] {
			acc.Add(o.correct)
			times = append(times, o.seconds)
			for j := range perf {
				perf[j] += o.perf[j]
			}
			attack += o.attack
			attackInstr += o.attackInstr
		}
		rows = append(rows, phantom.DerandRow{
			Arch: arch, Model: arch.ModelName(),
			AccuracyPct: acc.Percent(), MedianSeconds: stats.Median(times), Runs: b.runs,
		})
	}
	r := unitResult{items: n, attempted: 1}
	if want, ok := b.out.first[b.seed]; ok && phantom.FormatDerand(b.title(), rows) != want {
		r.failed = 1
	}

	alloc, err := allocPerCall(bootAllocBoots, func(i int) error {
		p, err := uarch.ByName(string(phantom.Zen2))
		if err != nil {
			return err
		}
		_, err = kernel.Boot(p, kernel.Config{Seed: b.seed + int64(i), NoiseLevel: 1})
		return err
	})
	if err != nil {
		return r, nil, sim, err
	}
	vals := layerVals{
		"btb.hit_pct":           100 * float64(perf[1]) / float64(perf[0]),
		"cache.uop_hit_pct":     100 * float64(perf[2]) / float64(perf[2]+perf[3]),
		"pipeline.ns_per_instr": float64(attack.Nanoseconds()) / float64(attackInstr),
		"kernel.boot_alloc_mb":  float64(alloc) / 1e6,
		"kernel.boots":          float64(n),
	}
	return r, vals, sim, nil
}

func (b *kaslrBench) close() error { return nil }
