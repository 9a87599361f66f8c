package core

import (
	"context"
	"fmt"

	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/pipeline"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// Fig6Point is one x-position of Figure 6: the µop-cache hit/miss counts
// observed when re-executing the priming jmp-series after a victim run,
// with the speculation target C placed at the given page offset.
type Fig6Point struct {
	Offset uint64 // page offset of C (0x000 .. 0xfc0)
	Hits   int    // op-cache hits while re-running the jmp-series
	Misses int    // op-cache misses — spikes when C's offset matches the series set
}

// Fig6SeriesOffset is the page offset of the paper's jmp-series, the
// default Fig6Config.SeriesOffset.
const Fig6SeriesOffset = 0xac0

// fig6Step is the distance between C's page offsets: the paper plots
// 0x40-granular points up to 0xfc0 (the figure labels every 0x100).
const fig6Step = 0x40

// Fig6Config tunes the experiment.
type Fig6Config struct {
	Seed int64
	// SeriesOffset is the page offset of the priming jmp-series; only a C
	// at the matching offset evicts series lines. 0 means
	// Fig6SeriesOffset.
	SeriesOffset uint64
}

// seriesLen is the number of jmp-series branches; it fills every way of
// one µop-cache set (the paper's series uses 7 branches plus the resident
// victim line; priming all 8 ways makes the single-fill eviction signal
// deterministic in this simulator's LRU model).
const seriesLen = 8

// RunFig6 reproduces Figure 6: detecting speculative decode via the
// µop cache. A non-branch victim is confused with a jmp* prediction to C;
// C's page offset sweeps across the page, and only when it matches the
// jmp-series' µop-cache set do re-runs of the series show misses. The
// points run one after another on one machine, reset before each.
func RunFig6(ctx context.Context, p *uarch.Profile, cfg Fig6Config) ([]Fig6Point, error) {
	telemetry.CountExperiment("fig6")
	if cfg.SeriesOffset == 0 {
		cfg.SeriesOffset = Fig6SeriesOffset
	}
	var points []Fig6Point
	var m *pipeline.Machine
	for off := uint64(0); off < 0x1000; off += fig6Step {
		m = userMachine(m, p, cfg.Seed)
		pt, err := fig6Point(ctx, m, cfg, off)
		if err != nil {
			return nil, fmt.Errorf("offset %#x: %w", off, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

// fig6Point measures the point at C's page offset off on m, which must be
// in the state userMachine returns.
func fig6Point(ctx context.Context, m *pipeline.Machine, cfg Fig6Config, off uint64) (Fig6Point, error) {
	env := newUserEnv(ctx, m)
	p := m.Prof
	maskVal, ok := btb.SamePrivAliasMask(m.BTB.Scheme())
	if !ok {
		return Fig6Point{}, fmt.Errorf("core: no alias mask for %s", p)
	}

	aAddr := labABase
	bAddr := aAddr ^ maskVal
	cAddr := (aAddr &^ 0xfff) + 0x80000 + off
	seriesBase := uint64(0x5200000000)

	// Training source A: jmp* rdi.
	ta := isa.NewAssembler(aAddr)
	ta.JmpReg(isa.RDI)
	if err := env.mapAsm(ta); err != nil {
		return Fig6Point{}, err
	}
	// Victim B: nops (trained non-branch victim... here the confusion is
	// reversed relative to Table 1 naming: B decodes as non-branch while
	// the aliased prediction says jmp*).
	vb := isa.NewAssembler(bAddr)
	vb.NopSled(16)
	vb.Hlt()
	if err := env.mapAsm(vb); err != nil {
		return Fig6Point{}, err
	}
	// Target C: a few nops and a halt (only its decode matters).
	ca := isa.NewAssembler(cAddr)
	ca.NopSled(8)
	ca.Hlt()
	if err := env.mapAsm(ca); err != nil {
		return Fig6Point{}, err
	}

	// The jmp-series: seriesLen direct forward branches separated by
	// 4096 bytes, all at page offset cfg.SeriesOffset, hence all in one
	// µop-cache set (Figure 5B step 1).
	sa := isa.NewAssembler(seriesBase + cfg.SeriesOffset)
	for i := 0; i < seriesLen; i++ {
		next := seriesBase + uint64(i+1)*4096 + cfg.SeriesOffset
		if i == seriesLen-1 {
			sa.Hlt()
		} else {
			sa.JmpTo(next)
			sa.Org(next)
		}
	}
	if err := env.mapAsm(sa); err != nil {
		return Fig6Point{}, err
	}
	seriesEntry := seriesBase + cfg.SeriesOffset

	// Train the BTB entry.
	for i := 0; i < 2; i++ {
		m.Regs[isa.RDI] = cAddr
		if err := env.run(aAddr, 100); err != nil {
			return Fig6Point{}, err
		}
	}
	// Evict C's µop line left over from the architectural training runs,
	// then prime the series set (Figure 5B steps 1 and 3).
	m.Uop.FlushAll()
	if err := env.run(seriesEntry, 100); err != nil {
		return Fig6Point{}, err
	}

	// Victim: phantom speculation decodes C, evicting a series way iff
	// the sets collide.
	if err := env.run(bAddr, 100); err != nil {
		return Fig6Point{}, err
	}

	// Re-run the series, sampling the op-cache hit/miss counters around
	// it (the per-µarch events named in Section 5.1).
	before := m.Perf
	if err := env.run(seriesEntry, 100); err != nil {
		return Fig6Point{}, err
	}
	d := m.Perf.Delta(before)
	return Fig6Point{Offset: off, Hits: int(d.UopCacheHits), Misses: int(d.UopCacheMisses)}, nil
}
