package core

import (
	"context"
	"fmt"

	"phantom/internal/pipeline"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// CellStatus distinguishes evaluated matrix cells from the ones the paper
// excludes or annotates.
type CellStatus uint8

// Cell statuses.
const (
	CellEvaluated CellStatus = iota
	// CellSymmetric marks training/victim pairs of identical type where no
	// type confusion exists: (jmp*, jmp*) is classic Spectre-V2 [34],
	// (ret, ret) ordinary return prediction, (non-branch, non-branch) no
	// misprediction at all. Direct jmp/jcc pairs stay evaluated because
	// the paper treats "same type, different displacement" as asymmetric.
	CellSymmetric
)

// MatrixCell is one entry of the Table 1 reproduction.
type MatrixCell struct {
	Training, Victim BranchKind
	Status           CellStatus
	Reach            Reach
	Note             string
}

// MatrixResult is a full 5×5 sweep for one microarchitecture.
type MatrixResult struct {
	Cells [NumKinds][NumKinds]MatrixCell
}

// MatrixConfig tunes the Table 1 experiment.
type MatrixConfig struct {
	Seed   int64
	Trials int     // per-cell trials (positive and negative each); see phantom.Table1Trials
	Noise  float64 // machine noise level; 0 = deterministic
}

// cellSeed is the machine seed of the cell (train, victim).
func (cfg MatrixConfig) cellSeed(train, victim BranchKind) int64 {
	return cfg.Seed + int64(train)*31 + int64(victim)
}

// symmetricCell reports cells excluded from Phantom evaluation.
func symmetricCell(train, victim BranchKind) (bool, string) {
	if train != victim {
		return false, ""
	}
	switch train {
	case KindJmpInd:
		return true, "Spectre-V2 [34]"
	case KindRet:
		return true, "return prediction"
	case KindNonBranch:
		return true, "no misprediction"
	}
	return false, "" // jmp/jcc with different displacement: evaluated
}

// RunMatrix reproduces Table 1 for one profile: every training/victim
// combination, measured through the IF/ID/EX observation channels. The
// cells run one after another on one machine, reset to each cell's seed.
func RunMatrix(ctx context.Context, p *uarch.Profile, cfg MatrixConfig) (*MatrixResult, error) {
	telemetry.CountExperiment("matrix")
	res := &MatrixResult{}
	var m *pipeline.Machine
	for tr := BranchKind(0); tr < NumKinds; tr++ {
		for vi := BranchKind(0); vi < NumKinds; vi++ {
			cell := MatrixCell{Training: tr, Victim: vi}
			if sym, note := symmetricCell(tr, vi); sym {
				cell.Status = CellSymmetric
				cell.Note = note
			} else {
				m = pipeline.Renew(m, p, userPhysBytes, cfg.cellSeed(tr, vi))
				reach, err := runCombo(ctx, m, tr, vi, cfg.Trials, cfg.Noise, uarch.MSRState{})
				if err != nil {
					return nil, fmt.Errorf("cell (%v, %v): %w", tr, vi, err)
				}
				cell.Reach = reach
				switch {
				case tr == KindJmpInd && vi == KindRet:
					cell.Note = "Retbleed [73]"
				case tr == KindNonBranch && vi == KindRet:
					cell.Note = "Spectre-SLS [70, 6]"
				}
			}
			res.Cells[tr][vi] = cell
		}
	}
	return res, nil
}
