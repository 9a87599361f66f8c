package pipeline

import (
	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

// reconcilePrediction compares the BTB's pre-decode prediction with the
// instruction the decoder actually finds at va and, on disagreement, runs
// the wrong path for the appropriate window:
//
//   - class mismatch or direct-target mismatch → decoder-detectable →
//     PHANTOM: frontend-issued resteer after the short Phantom window;
//   - same-class execute-dependent mispredictions (wrong indirect target,
//     wrong jcc direction, wrong return target) → backend-issued resteer
//     after the long Spectre window.
func (m *Machine) reconcilePrediction(va uint64, in isa.Inst, pred btb.Prediction) {
	actual := in.Class()

	if pred.Class == actual {
		m.reconcileSameClass(va, in, pred)
		return
	}

	// PHANTOM: the trainer's class disagrees with the decoded victim.
	// The decoder discovers the mismatch; until then the predicted path
	// advances through the frontend.
	if m.MSR.WaitForDecode {
		// Hypothetical Section 8.1 mitigation: the prediction was never
		// consumed before the decoder validated the branch type, so the
		// type confusion produces no speculation at any stage.
		return
	}
	target, ok := m.predictedTarget(pred, va)
	if !ok {
		return // e.g. ret-class prediction with an empty RSB
	}
	if pred.Class == isa.BrJcc && !m.PHT.Predict(va) {
		// Trained as a conditional that the direction predictor currently
		// says is not taken: the frontend keeps fetching sequentially, so
		// the phantom target is never steered to.
		return
	}

	win := m.Prof.PhantomWindow
	// SuppressBPOnNonBr (Section 6.3): when the victim decodes as a
	// non-branch, the mitigation stops wrong-path dispatch to execute —
	// but not the fetch and decode that already happened (Observation O4).
	if m.MSR.SuppressBPOnNonBr && actual == isa.BrNone {
		win.ExecUops = 0
	}
	// Intel jmp*-victim anomaly (Section 6).
	if actual == isa.BrJmpInd || actual == isa.BrCallInd {
		switch m.Prof.IndirectVictim {
		case uarch.IndirectVictimNone:
			m.resteer(true)
			return
		case uarch.IndirectVictimFetchOnly:
			win.DecodeInsts = 0
			win.ExecUops = 0
		}
	}

	m.speculate(target, win, specPhantom)
	m.resteer(true)
}

// reconcileSameClass handles a prediction whose class matches the decoded
// instruction.
func (m *Machine) reconcileSameClass(va uint64, in isa.Inst, pred btb.Prediction) {
	switch in.Class() {
	case isa.BrJmp, isa.BrCall:
		// Direct target known at decode: a displacement mismatch (trained
		// by a jmp with a different displacement — still Phantom per
		// Section 5.2) is decoder-detectable.
		if in.Target(va) != pred.Target {
			if m.MSR.WaitForDecode {
				return // steering validated against the decoded target
			}
			m.speculate(pred.Target, m.Prof.PhantomWindow, specPhantom)
			m.resteer(true)
		}
	case isa.BrJcc:
		actualTarget := in.Target(va)
		if actualTarget != pred.Target {
			if m.MSR.WaitForDecode {
				return
			}
			if m.PHT.Predict(va) {
				m.speculate(pred.Target, m.Prof.PhantomWindow, specPhantom)
				m.resteer(true)
			}
			return
		}
		// Same target: only the direction can mispredict, and direction
		// resolves at execute (classic Spectre-PHT window).
		predTaken := m.PHT.Predict(va)
		actualTaken := evalCond(in.Cond, m.ZF, m.CF)
		if predTaken != actualTaken {
			wrong := va + uint64(in.Len)
			if predTaken {
				wrong = actualTarget
			}
			m.speculate(wrong, m.Prof.SpectreWindow, specBackend)
			m.resteer(false)
		}
	case isa.BrJmpInd, isa.BrCallInd:
		// Indirect target resolves at execute.
		if m.Regs[in.Reg] != pred.Target {
			m.speculate(pred.Target, m.Prof.SpectreWindow, specBackend)
			m.resteer(false)
		}
	case isa.BrRet:
		predTarget, ok := m.RSB.Peek()
		if !ok {
			return
		}
		actualTarget, err := m.AS().Read64(m.Regs[isa.RSP])
		if err != nil {
			return // architectural execution will take the fault
		}
		if predTarget != actualTarget {
			m.speculate(predTarget, m.Prof.SpectreWindow, specBackend)
			m.resteer(false)
		}
	}
}

// handleUnpredicted covers fetch addresses with no usable BTB prediction:
// the frontend assumes straight-line code until the decoder (direct
// branches) or the execute stage (everything else) says otherwise.
func (m *Machine) handleUnpredicted(va uint64, in isa.Inst) {
	switch in.Class() {
	case isa.BrNone:
		return
	case isa.BrJmp, isa.BrCall:
		// Target computed at decode; the decoupled fetcher has already
		// fetched the fall-through line (a harmless one-line transient
		// fetch) before the decode-time redirect.
		m.transientFetchLine(va + uint64(in.Len))
		m.Cycle += 2
	case isa.BrJcc:
		// The decoder sees the branch and consults the direction
		// predictor; a wrong direction resolves at execute.
		predTaken := m.PHT.Predict(va)
		actualTaken := evalCond(in.Cond, m.ZF, m.CF)
		if predTaken != actualTaken {
			wrong := va + uint64(in.Len)
			if predTaken {
				wrong = in.Target(va)
			}
			m.speculate(wrong, m.Prof.SpectreWindow, specBackend)
			m.resteer(false)
		}
	case isa.BrRet:
		if predTarget, ok := m.RSB.Peek(); ok {
			actualTarget, err := m.AS().Read64(m.Regs[isa.RSP])
			if err == nil && predTarget != actualTarget {
				m.speculate(predTarget, m.Prof.SpectreWindow, specBackend)
				m.resteer(false)
			}
			return
		}
		if m.Prof.StraightLineSpec {
			// No return prediction available: AMD parts speculate past
			// the return into the sequential bytes (Spectre-SLS, Table 1
			// footnote c). Resolution happens at execute.
			m.speculate(va+uint64(in.Len), m.Prof.SpectreWindow, specBackend)
			m.resteer(false)
		} else {
			m.Cycle += uint64(m.Prof.ExecResteerLatency)
		}
	case isa.BrJmpInd, isa.BrCallInd:
		// No predicted target: the frontend stalls until execute produces
		// one. (Retpolines rely on exactly this.)
		m.Cycle += uint64(m.Prof.ExecResteerLatency)
	}
}

// predictedTarget resolves where a prediction steers the frontend.
func (m *Machine) predictedTarget(pred btb.Prediction, va uint64) (uint64, bool) {
	if pred.Class == isa.BrRet {
		// Return predictions are served by the RSB: "the return target
		// will not be to C, but to the most recent call site"
		// (Section 5.2).
		return m.RSB.Peek()
	}
	return pred.Target, true
}

// resteer charges the pipeline-redirect penalty. frontend=true is a
// decoder-issued (Phantom) resteer; false is a backend (execute) one.
func (m *Machine) resteer(frontend bool) {
	if frontend {
		m.Cycle += uint64(m.Prof.DecodeResteerLatency)
		m.Debug.FrontendResteers++
		m.emit(EvResteerFrontend, m.RIP, 0)
	} else {
		m.Cycle += uint64(m.Prof.ExecResteerLatency)
		m.Debug.BackendResteers++
		m.emit(EvResteerBackend, m.RIP, 0)
	}
	m.Perf.MispredictsResteered++
	// The redirect refills the fetch pipeline.
	m.lastFetchLine = ^uint64(0)
	m.lastUopLine = ^uint64(0)
}

// transientFetchLine models a single wrong-path line fetch (fall-through
// prefetch by the decoupled fetcher).
func (m *Machine) transientFetchLine(va uint64) {
	if m.DisableSpeculation {
		return
	}
	if pa, _, ok := m.AS().TranslateV(va, mem.AccessFetch, !m.Kernel); ok {
		m.Hier.AccessFetch(pa)
		m.Debug.TransientFetchLines++
	}
}
