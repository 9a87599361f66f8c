package pipeline

import (
	"phantom/internal/cache"
	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

// specKind labels the origin of a speculation episode.
type specKind uint8

const (
	// specPhantom is decoder-detectable bad speculation (frontend
	// resteer): the short window.
	specPhantom specKind = iota
	// specBackend is execute-resolved bad speculation (backend resteer):
	// the classic Spectre window.
	specBackend
)

// speculate runs the wrong path starting at target until the window is
// exhausted or the path dies (fault, undecodable bytes, serializing
// instruction). Wrong-path work leaves real microarchitectural state:
// I-cache fills for every line fetched, µop-cache fills for every line
// decoded, and D-cache fills for every load dispatched — while
// architectural state is untouched. Loads forward their values to later
// wrong-path µops, which is what lets a disclosure gadget turn a
// transiently loaded secret into a cache-set address (P3, Section 6.1).
func (m *Machine) speculate(target uint64, win uarch.Window, kind specKind) {
	if m.DisableSpeculation {
		return
	}
	regs := m.Regs // transient copy; never written back
	zf, cf := m.ZF, m.CF
	pc := target
	fetchLines, decodes, uops := 0, 0, 0
	lastLine := ^uint64(0)
	lastULine := ^uint64(0)
	// A nested decoder-detectable misprediction inside the window clamps
	// the remaining execute budget to the Phantom allowance.
	execBudget := win.ExecUops

	for {
		// --- transient fetch ---
		line := pc &^ (cache.LineSize - 1)
		if line != lastLine {
			if fetchLines >= win.FetchLines {
				return
			}
			pa, f := m.translateFetch(pc)
			if f != nil {
				// Unmapped or NX: the fetch dies and nothing fills — the
				// asymmetry P1/P2 are built on.
				return
			}
			m.Hier.AccessFetch(pa)
			m.Debug.TransientFetchLines++
			m.emit(EvSpecFetch, line, 0)
			fetchLines++
			lastLine = line
		}

		// --- transient decode ---
		if decodes >= win.DecodeInsts {
			return
		}
		inp, f := m.decodeAt(pc)
		if f != nil {
			return
		}
		in := *inp
		if in.Op == isa.OpInvalid || in.Op == isa.OpInt3 || in.Op == isa.OpHlt {
			return
		}
		if uline := pc &^ (cache.LineSize - 1); uline != lastULine {
			if hit, _, _ := m.Uop.Access(pc); hit {
				m.Perf.UopCacheHits++
			} else {
				m.Perf.UopCacheMisses++
			}
			lastULine = uline
		}
		decodes++
		m.Debug.TransientDecodes++
		m.emit(EvSpecDecode, pc, 0)

		canExec := uops < execBudget

		// --- transient execute (bounded; may be zero-width) ---
		if canExec {
			uops++
			m.Debug.TransientUops++
			m.emit(EvSpecUop, pc, 0)
			switch in.Op {
			case isa.OpLoad:
				va := regs[in.Reg2] + uint64(int64(in.Disp))
				pa, _, ok := m.AS().TranslateV(va, mem.AccessRead, !m.Kernel)
				if ok {
					m.Hier.AccessData(pa)
					m.Debug.TransientLoads++
					m.emit(EvSpecLoad, va, 0)
					regs[in.Reg] = m.Phys.Read64(pa)
				}
				// A faulting transient load yields no architectural fault;
				// the modeled AMD parts are not Meltdown-style leaky, so
				// no value forwards either.
			case isa.OpStore:
				// Stores sit in the store buffer and never drain on the
				// wrong path; no cache footprint in this model.
			case isa.OpPush:
				// Store-buffer only.
			case isa.OpPop:
				va := regs[isa.RSP]
				if pa, _, ok := m.AS().TranslateV(va, mem.AccessRead, !m.Kernel); ok {
					m.Hier.AccessData(pa)
					m.Debug.TransientLoads++
					m.emit(EvSpecLoad, va, 0)
					regs[in.Reg] = m.Phys.Read64(pa)
				}
				regs[isa.RSP] += 8
			case isa.OpLfence, isa.OpMfence:
				// Serializing: the wrong path cannot proceed past it, and
				// by the time it drains the resteer has arrived.
				return
			case isa.OpSyscall, isa.OpRdtsc, isa.OpClflush:
				// Privileged/serializing-ish operations do not execute
				// transiently in this model.
				return
			default:
				zf, cf = alu(in, &regs, zf, cf)
			}
		}

		// --- next wrong-path PC ---
		next, alive := m.specNextPC(pc, in, regs, zf, cf, canExec, &execBudget, uops)
		if !alive {
			return
		}
		pc = next
	}
}

// specNextPC steers the wrong path across branches. The wrong-path
// frontend behaves like the real one: it consults the BTB (nested
// predictions — how the MDS exploit of Section 7.4 chains a Phantom
// window inside a Spectre window), follows direct targets at decode, asks
// the PHT for directions, and the RSB for returns.
func (m *Machine) specNextPC(pc uint64, in isa.Inst, regs [isa.NumRegs]uint64, zf, cf bool, canExec bool, execBudget *int, uops int) (uint64, bool) {
	fallthrough_ := pc + uint64(in.Len)

	pred, predHit := m.BTB.Lookup(pc, m.Kernel)
	if predHit && m.MSR.AutoIBRS && pred.TrainedKernel != m.Kernel {
		predHit = false
	}
	actual := in.Class()

	if predHit && pred.Class != actual {
		if m.MSR.WaitForDecode {
			// The Section 8.1 mitigation also kills nested type
			// confusions: the wrong-path frontend validates too.
			return fallthrough_, true
		}
		// Nested decoder-detectable misprediction: the frontend steers to
		// the predicted target; the decoder will catch it, so only the
		// Phantom allowance of further µops may execute.
		if m.MSR.SuppressBPOnNonBr && actual == isa.BrNone {
			*execBudget = uops
		} else if left := uops + m.Prof.PhantomWindow.ExecUops; left < *execBudget {
			*execBudget = left
		}
		target, ok := m.predictedTarget(pred, pc)
		if !ok {
			return 0, false
		}
		if pred.Class == isa.BrJcc && !m.PHT.Predict(pc) {
			return fallthrough_, true
		}
		return target, true
	}

	switch actual {
	case isa.BrNone:
		return fallthrough_, true
	case isa.BrJmp, isa.BrCall:
		return in.Target(pc), true
	case isa.BrJcc:
		// Direction: flags if this branch executed transiently, else the
		// direction predictor.
		var taken bool
		if canExec {
			taken = evalCond(in.Cond, zf, cf)
		} else {
			taken = m.PHT.Predict(pc)
		}
		if taken {
			return in.Target(pc), true
		}
		return fallthrough_, true
	case isa.BrJmpInd, isa.BrCallInd:
		if predHit {
			return pred.Target, true
		}
		if canExec {
			return regs[in.Reg], true
		}
		return 0, false // frontend stalls: no target available
	case isa.BrRet:
		if t, ok := m.RSB.Peek(); ok {
			return t, true
		}
		if m.Prof.StraightLineSpec {
			return fallthrough_, true
		}
		return 0, false
	}
	return 0, false
}
