package pipeline

import (
	"phantom/internal/isa"
	"phantom/internal/mem"
)

// Syscall transition costs in cycles (entry includes swapgs/stack switch;
// KPTI adds a CR3 write and TLB effect).
const (
	syscallEntryCost = 90
	syscallExitCost  = 70
	kptiExtraCost    = 40
)

// exec retires one architectural instruction, updating registers, memory,
// and — critically — the predictors: every executed branch trains the BTB
// with its *class* and target, which is the state Phantom attacks inject
// from user mode.
func (m *Machine) exec(va uint64, in isa.Inst) *RunResult {
	next := va + uint64(in.Len)

	switch in.Op {
	case isa.OpNop:
		// nothing
	case isa.OpLoad:
		addr := m.Regs[in.Reg2] + uint64(int64(in.Disp))
		pa, f := m.dataAccess(addr, mem.AccessRead)
		if f != nil {
			return m.fault(f)
		}
		m.Regs[in.Reg] = m.Phys.Read64(pa)
	case isa.OpStore:
		addr := m.Regs[in.Reg2] + uint64(int64(in.Disp))
		pa, f := m.dataAccess(addr, mem.AccessWrite)
		if f != nil {
			return m.fault(f)
		}
		// Phys.Write64 advances the code generation when pa lands in a
		// predecoded frame, so a store over executed bytes (self-modifying
		// code) evicts the stale decodes before they can be fetched again.
		m.Phys.Write64(pa, m.Regs[in.Reg])
	case isa.OpPush:
		m.Regs[isa.RSP] -= 8
		pa, f := m.dataAccess(m.Regs[isa.RSP], mem.AccessWrite)
		if f != nil {
			m.Regs[isa.RSP] += 8
			return m.fault(f)
		}
		m.Phys.Write64(pa, m.Regs[in.Reg])
	case isa.OpPop:
		pa, f := m.dataAccess(m.Regs[isa.RSP], mem.AccessRead)
		if f != nil {
			return m.fault(f)
		}
		m.Regs[in.Reg] = m.Phys.Read64(pa)
		m.Regs[isa.RSP] += 8
	case isa.OpRdtsc:
		m.Regs[isa.RAX] = m.Cycle
	case isa.OpClflush:
		addr := m.Regs[in.Reg2] + uint64(int64(in.Disp))
		pa, f := m.xlate(addr, mem.AccessRead)
		if f != nil {
			return m.fault(f)
		}
		m.Hier.FlushLine(pa)
		m.Cycle += 40
	case isa.OpLfence, isa.OpMfence:
		m.Cycle += 4
	case isa.OpHlt:
		return m.stop(RunResult{Reason: StopHalt})
	case isa.OpInt3:
		return m.stop(RunResult{Reason: StopTrap})

	case isa.OpJmp:
		next = m.takeBranch(va, isa.BrJmp, in.Target(va))
	case isa.OpJcc:
		taken := evalCond(in.Cond, m.ZF, m.CF)
		m.PHT.Update(va, taken)
		if taken {
			next = m.takeBranch(va, isa.BrJcc, in.Target(va))
		}
	case isa.OpJmpInd:
		next = m.takeBranch(va, isa.BrJmpInd, m.Regs[in.Reg])
	case isa.OpCall:
		target := in.Target(va)
		if stop := m.pushRet(next); stop != nil {
			return stop
		}
		m.RSB.Push(next)
		next = m.takeBranch(va, isa.BrCall, target)
	case isa.OpCallInd:
		target := m.Regs[in.Reg]
		if stop := m.pushRet(next); stop != nil {
			return stop
		}
		m.RSB.Push(next)
		next = m.takeBranch(va, isa.BrCallInd, target)
	case isa.OpRet:
		pa, f := m.dataAccess(m.Regs[isa.RSP], mem.AccessRead)
		if f != nil {
			return m.fault(f)
		}
		target := m.Phys.Read64(pa)
		m.Regs[isa.RSP] += 8
		m.RSB.Pop()
		next = m.takeBranch(va, isa.BrRet, target)

	case isa.OpSyscall:
		if !m.Kernel {
			if m.SyscallEntry == 0 {
				return m.stop(RunResult{Reason: StopTrap})
			}
			m.Debug.Syscalls++
			m.emit(EvSyscall, va, 1)
			m.syscallRet = next
			m.Kernel = true
			m.Cycle += syscallEntryCost
			if m.KPTI {
				m.Cycle += kptiExtraCost
				m.ITLB.Flush()
				m.DTLB.Flush()
			}
			if m.MSR.IBPBOnKernelEntry {
				m.IBPB()
				m.Cycle += 1200 // IBPB's documented heavyweight cost
			}
			m.Noise.SyscallThrash()
			next = m.SyscallEntry
		} else {
			// In kernel mode the instruction acts as sysret.
			m.emit(EvSyscall, va, 0)
			m.Kernel = false
			m.Cycle += syscallExitCost
			if m.KPTI {
				m.Cycle += kptiExtraCost
				m.ITLB.Flush()
				m.DTLB.Flush()
			}
			m.Noise.SyscallThrash()
			next = m.syscallRet
		}
		m.lastFetchLine = ^uint64(0)
		m.lastUopLine = ^uint64(0)
	default:
		m.ZF, m.CF = alu(in, &m.Regs, m.ZF, m.CF)
	}

	m.RIP = next
	return nil
}

// alu applies a register ALU instruction (mov, xor, add, sub, cmp, the
// immediate ALU forms and shifts) to regs and returns the new ZF and CF;
// any other instruction leaves both unchanged. Retirement and the wrong
// path both compute through it, so a transient jcc steers by the flags
// the same instructions set architecturally.
func alu(in isa.Inst, regs *[isa.NumRegs]uint64, zf, cf bool) (bool, bool) {
	switch in.Op {
	case isa.OpMovImm:
		regs[in.Reg] = uint64(in.Imm)
	case isa.OpMovReg:
		regs[in.Reg] = regs[in.Reg2]
	case isa.OpXorReg:
		regs[in.Reg] ^= regs[in.Reg2]
		return regs[in.Reg] == 0, false
	case isa.OpAddReg:
		old := regs[in.Reg]
		regs[in.Reg] += regs[in.Reg2]
		return regs[in.Reg] == 0, regs[in.Reg] < old
	case isa.OpSubReg:
		old := regs[in.Reg]
		regs[in.Reg] -= regs[in.Reg2]
		return regs[in.Reg] == 0, old < regs[in.Reg2]
	case isa.OpCmpReg:
		return regs[in.Reg] == regs[in.Reg2], regs[in.Reg] < regs[in.Reg2]
	case isa.OpAluImm:
		regs[in.Reg], zf, cf = aluImm(in.Alu, regs[in.Reg], uint64(in.Imm), zf, cf)
	case isa.OpShiftImm:
		if in.Alu == 4 {
			regs[in.Reg] <<= uint(in.Imm)
		} else {
			regs[in.Reg] >>= uint(in.Imm)
		}
		zf = regs[in.Reg] == 0
	}
	return zf, cf
}

// aluImm applies an OpAluImm operation, returning the new value and flags.
func aluImm(op isa.AluOp, v, imm uint64, zf, cf bool) (uint64, bool, bool) {
	switch op {
	case isa.AluAdd:
		r := v + imm
		return r, r == 0, r < v
	case isa.AluOr:
		r := v | imm
		return r, r == 0, false
	case isa.AluAnd:
		r := v & imm
		return r, r == 0, false
	case isa.AluSub:
		r := v - imm
		return r, r == 0, v < imm
	case isa.AluCmp:
		r := v - imm
		return v, r == 0, v < imm
	}
	return v, zf, cf
}

// evalCond evaluates a condition code against the given flags: the
// machine's on the architectural path, the transient copies on the wrong
// path.
func evalCond(c isa.Cond, zf, cf bool) bool {
	switch c {
	case isa.CondZ:
		return zf
	case isa.CondNZ:
		return !zf
	case isa.CondB:
		return cf
	case isa.CondAE:
		return !cf
	}
	return false
}

// takeBranch retires a taken branch: trains the BTB with the branch class
// (the property Phantom exploits — Section 5.2: "the training instruction
// always determines the prediction semantics of the victim instruction")
// and redirects fetch.
func (m *Machine) takeBranch(va uint64, class isa.BranchClass, target uint64) uint64 {
	m.emit(EvBranch, va, target)
	m.BTB.Update(va, m.Kernel, class, target)
	m.lastFetchLine = ^uint64(0)
	m.lastUopLine = ^uint64(0)
	return target
}

// pushRet pushes a call's return address onto the architectural stack.
func (m *Machine) pushRet(ret uint64) *RunResult {
	m.Regs[isa.RSP] -= 8
	pa, f := m.dataAccess(m.Regs[isa.RSP], mem.AccessWrite)
	if f != nil {
		m.Regs[isa.RSP] += 8
		return m.fault(f)
	}
	m.Phys.Write64(pa, ret)
	return nil
}
