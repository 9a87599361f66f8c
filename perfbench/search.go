package main

import (
	"bytes"
	"context"
	"fmt"

	"phantom/internal/pipeline"
	"phantom/internal/search"
	"phantom/internal/sweep"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// search: search.Run at a fixed budget on Zen 2. It never boots a
// kernel; building a fresh machine per differential leg and the
// garbage that leaves dominate, and the interpreter is a small share.

const (
	searchArch        = "zen2"
	searchBudget      = 2000
	searchProbeBudget = 64
	// searchBatch is search.Run's iterations per sweep job.
	searchBatch = 32
	// searchMachineBytes is the physical memory search builds each
	// machine with.
	searchMachineBytes = 1 << 30
	// pipelineNewCalls times pipeline.New this many times per unit.
	pipelineNewCalls = 16
)

type searchBench struct {
	opts search.Options // for input 0; input k searches from Seed+k
	out  outputs
}

func setupSearch(e env) (bench, error) {
	b := &searchBench{
		opts: search.Options{Arch: searchArch, Seed: e.seed, Budget: searchBudget},
		out:  newOutputs("search", !e.probe),
	}
	if e.probe {
		b.opts.Budget = searchProbeBudget
	}
	// Let lazy set-up finish before timing: diff the first batch.
	for it := 0; it < searchBatch; it++ {
		if _, err := search.RunDiff(search.Generate(searchArch, deriveSeed(e.seed, it))); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *searchBench) unit(m *meter, input int) (unitResult, error) {
	o := b.opts
	o.Seed += int64(input)
	m.start()
	res, err := search.Run(context.Background(), o)
	m.stop()
	if err != nil {
		return unitResult{}, err
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		return unitResult{}, err
	}
	text := buf.String()
	r := unitResult{items: o.Budget, attempted: 1, sums: map[int64]string{o.Seed: digest(text)}}
	if !b.out.accept(o.Seed, text) {
		r.failed = 1
	}
	return r, nil
}

// deriveSeed is search.Run's per-iteration program seed (splitmix64 of
// the base seed and the iteration). The traced run needs the same
// programs; its rendering check fails if the two ever diverge.
func deriveSeed(base int64, iter int) int64 {
	z := uint64(base) + uint64(iter+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// batch is one sweep job's share of the traced search.
type batch struct {
	anomalous int
	hits      []search.Finding
}

// traced is search.Run decomposed into direct calls to Generate,
// RunDiff, Classify and Minimize, with the same batching, merge order
// and deduplication, so it renders the same findings. pipeline.New is
// then timed on its own with search's machine shape.
func (b *searchBench) traced(m *meter, tr *tracer, root int) (unitResult, layerVals, simCounts, error) {
	o := b.opts
	batches := (o.Budget + searchBatch - 1) / searchBatch
	sopts := sweep.Options{}
	if s := telemetry.Sweep("perfbench_search", batches); s != nil {
		sopts.Observer = s
	}
	c0 := hubCounts()
	m.start()
	out, err := sweep.Run(context.Background(), batches, sopts, func(_ context.Context, job int) (batch, error) {
		js := tr.begin("sweep.job", root)
		defer tr.end(js)
		var bt batch
		for it := job * searchBatch; it < min((job+1)*searchBatch, o.Budget); it++ {
			sp := tr.begin("search.generate", js)
			p := search.Generate(o.Arch, deriveSeed(o.Seed, it))
			tr.end(sp)
			sp = tr.begin("search.rundiff", js)
			d, err := search.RunDiff(p)
			tr.end(sp)
			if err != nil {
				return bt, fmt.Errorf("iteration %d: %w", it, err)
			}
			sp = tr.begin("search.classify", js)
			fs := search.Classify(p, d)
			tr.end(sp)
			if len(fs) > 0 {
				bt.anomalous++
				bt.hits = append(bt.hits, fs...)
			}
		}
		return bt, nil
	})
	if err != nil {
		m.stop()
		return unitResult{}, nil, simCounts{}, err
	}
	res, err := b.minimize(out, tr, root)
	m.stop()
	if err != nil {
		return unitResult{}, nil, simCounts{}, err
	}
	sim := hubCounts().sub(c0)

	r := unitResult{items: o.Budget, attempted: 1}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		return r, nil, sim, err
	}
	if want, ok := b.out.first[o.Seed]; ok && buf.String() != want {
		r.failed = 1
	}

	prof, err := uarch.ByName(o.Arch)
	if err != nil {
		return r, nil, sim, err
	}
	alloc, err := allocPerCall(pipelineNewCalls, func(i int) error {
		sp := tr.begin("pipeline.new", root)
		pipeline.New(prof, searchMachineBytes, deriveSeed(o.Seed, i))
		tr.end(sp)
		return nil
	})
	if err != nil {
		return r, nil, sim, err
	}
	vals := layerVals{
		"search.anomalous_pct":  100 * float64(res.Anomalous) / float64(o.Budget),
		"pipeline.new_alloc_kb": float64(alloc) / 1e3,
	}
	return r, vals, sim, nil
}

// minimize merges the batches in job order, dedupes on the raw
// signature, then minimizes each kept finding sequentially and dedupes
// again on the minimized one — search.Run's tail.
func (b *searchBench) minimize(out []batch, tr *tracer, root int) (*search.Result, error) {
	res := &search.Result{Arch: b.opts.Arch, Seed: b.opts.Seed, Budget: b.opts.Budget}
	seen := make(map[string]bool)
	var kept []search.Finding
	for _, bt := range out {
		res.Anomalous += bt.anomalous
		for _, f := range bt.hits {
			if k := f.Key(); !seen[k] {
				seen[k] = true
				kept = append(kept, f)
			}
		}
	}
	minSeen := make(map[string]bool)
	for _, f := range kept {
		sp := tr.begin("search.minimize", root)
		p, err := search.Minimize(f.Program, f.Category)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("minimize %s: %w", f.Key(), err)
		}
		sp = tr.begin("search.rundiff", root)
		d, err := search.RunDiff(p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("search.classify", root)
		fs := search.Classify(p, d)
		tr.end(sp)
		var mf *search.Finding
		for i := range fs {
			if fs[i].Category == f.Category {
				mf = &fs[i]
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

func (b *searchBench) close() error { return nil }
