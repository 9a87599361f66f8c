package core

import (
	"context"
	"testing"

	"phantom/internal/pipeline"
	"phantom/internal/uarch"
)

// TestMatrixSharedMachineMatchesFresh: on every profile, at two seeds
// and at noise 0 and 1, each cell RunMatrix measures on its one reset
// machine equals that cell run on a machine of its own. The mitigation
// combos, run in EvaluateMitigations' order on one machine with their
// differing MSR states, equal the same combos on fresh machines down to
// the clock and counters, and EvaluateMitigations reports those reaches.
func TestMatrixSharedMachineMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, p := range uarch.All() {
		for _, seed := range []int64{5, 1 << 40} {
			for _, noise := range []float64{0, 1} {
				cfg := MatrixConfig{Seed: seed, Trials: 2, Noise: noise}
				res, err := RunMatrix(ctx, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for tr := BranchKind(0); tr < NumKinds; tr++ {
					for vi := BranchKind(0); vi < NumKinds; vi++ {
						cell := res.Cells[tr][vi]
						if cell.Status != CellEvaluated {
							continue
						}
						fresh := pipeline.New(p, userPhysBytes, cfg.cellSeed(tr, vi))
						want, err := runCombo(ctx, fresh, tr, vi, cfg.Trials, noise, uarch.MSRState{})
						if err != nil {
							t.Fatal(err)
						}
						if cell.Reach != want {
							t.Errorf("%s seed %d noise %v cell (%v, %v): shared machine %v, fresh machine %v",
								p.Name, seed, noise, tr, vi, cell.Reach, want)
						}
					}
				}
			}
		}

		const seed = 9
		combos := []struct {
			victim BranchKind
			msr    uarch.MSRState
		}{
			{KindNonBranch, uarch.MSRState{}},
			{KindNonBranch, uarch.MSRState{SuppressBPOnNonBr: true}},
			{KindJmp, uarch.MSRState{SuppressBPOnNonBr: true}},
			{KindNonBranch, uarch.MSRState{WaitForDecode: true}},
		}
		var shared *pipeline.Machine
		var reaches []Reach
		for _, c := range combos {
			shared = userMachine(shared, p, seed)
			got, err := runCombo(ctx, shared, KindJmpInd, c.victim, 4, 0, c.msr)
			if err != nil {
				t.Fatal(err)
			}
			fresh := pipeline.New(p, userPhysBytes, seed)
			want, err := runCombo(ctx, fresh, KindJmpInd, c.victim, 4, 0, c.msr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || shared.Cycle != fresh.Cycle || shared.Perf != fresh.Perf || shared.Debug != fresh.Debug {
				t.Errorf("%s combo %+v: shared machine %v at cycle %d (%+v), fresh machine %v at cycle %d (%+v)",
					p.Name, c, got, shared.Cycle, shared.Debug, want, fresh.Cycle, fresh.Debug)
			}
			reaches = append(reaches, want)
		}
		rep, err := EvaluateMitigations(ctx, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		got := []Reach{rep.BaselineReach, rep.SuppressReach, rep.BranchVictimReachWithMSR, rep.WaitForDecodeReach}
		if !p.SupportsSuppressBPOnNonBr {
			reaches[1], reaches[2] = Reach{}, Reach{}
		}
		for i := range got {
			if got[i] != reaches[i] {
				t.Errorf("%s: EvaluateMitigations combo %+v reached %v, fresh machine %v", p.Name, combos[i], got[i], reaches[i])
			}
		}
	}
}

// TestFig6SharedMachineMatchesFresh: every Figure 6 point measured on
// one machine, reset before each point as RunFig6 does, equals that
// point on a machine of its own down to the clock and counters, and
// RunFig6 returns those points.
func TestFig6SharedMachineMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, p := range []*uarch.Profile{uarch.Zen2(), uarch.Intel13()} {
		cfg := Fig6Config{Seed: 13, SeriesOffset: Fig6SeriesOffset}
		pts, err := RunFig6(ctx, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shared *pipeline.Machine
		for _, pt := range pts {
			shared = userMachine(shared, p, cfg.Seed)
			got, err := fig6Point(ctx, shared, cfg, pt.Offset)
			if err != nil {
				t.Fatal(err)
			}
			fresh := pipeline.New(p, userPhysBytes, cfg.Seed)
			want, err := fig6Point(ctx, fresh, cfg, pt.Offset)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || pt != want || shared.Cycle != fresh.Cycle || shared.Perf != fresh.Perf || shared.Debug != fresh.Debug {
				t.Errorf("%s offset %#x: RunFig6 %+v, shared machine %+v at cycle %d, fresh machine %+v at cycle %d",
					p.Name, pt.Offset, pt, got, shared.Cycle, want, fresh.Cycle)
			}
		}
	}
}
