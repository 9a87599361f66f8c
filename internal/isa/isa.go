// Package isa defines the simulated instruction set: a faithful subset of
// x86-64 machine code with variable-length encoding, an assembler with
// label resolution, a decoder and a disassembler.
//
// The Phantom attacks are all about what the *decoder* discovers about
// instruction bytes that the branch predictor had already made assumptions
// about, so the ISA keeps x86's essential properties: variable instruction
// length (1-10 bytes), branch types that are distinguishable only after
// decode (direct jmp, indirect jmp, conditional jcc, call, ret, and plain
// non-branch bytes), explicit fences, cache-line flushes, and a cycle
// counter readable from unprivileged code (rdtsc).
//
// Encodings follow real x86-64 where the subset allows: REX prefixes,
// ModRM with mod=10 disp32 memory operands, SIB for RSP/R12 bases,
// E9/E8 rel32 branches, 0F 8x rel32 conditional branches, FF /4 indirect
// jumps, multi-byte NOPs (0F 1F /0), 0F AE fences, 0F 31 rdtsc and
// 0F 05 syscall.
package isa

import "fmt"

// General purpose registers, numbered as in x86-64.
const (
	RAX = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	NumRegs
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// RegName returns the conventional name of register r.
func RegName(r int) string {
	if r < 0 || r >= NumRegs {
		return fmt.Sprintf("r?%d", r)
	}
	return regNames[r]
}

// Op identifies the operation of a decoded instruction.
type Op uint8

// Operations understood by the decoder and the execution engine.
const (
	OpInvalid  Op = iota // undecodable byte(s)
	OpNop                // 90 / 0F 1F forms
	OpJmp                // E9 rel32
	OpJcc                // 0F 8x rel32
	OpJmpInd             // FF /4, register-indirect jump
	OpCall               // E8 rel32
	OpCallInd            // FF /2, register-indirect call
	OpRet                // C3
	OpMovImm             // REX.W B8+r imm64
	OpMovReg             // REX.W 89 /r, mod=11
	OpLoad               // REX.W 8B /r, mod=10 disp32
	OpStore              // REX.W 89 /r, mod=10 disp32
	OpAluImm             // REX.W 81 /digit imm32 (add/or/and/sub/cmp)
	OpShiftImm           // REX.W C1 /4 (shl) or /5 (shr) imm8
	OpXorReg             // REX.W 31 /r, mod=11
	OpAddReg             // REX.W 01 /r, mod=11
	OpLfence             // 0F AE E8
	OpMfence             // 0F AE F0
	OpClflush            // 0F AE /7, mod=10 disp32
	OpRdtsc              // 0F 31 (result in RAX in this simulator)
	OpSyscall            // 0F 05
	OpHlt                // F4 — terminates a simulator run
	OpInt3               // CC — trap
	OpPush               // 50+r
	OpPop                // 58+r
	OpSubReg             // REX.W 29 /r, mod=11
	OpCmpReg             // REX.W 39 /r, mod=11
)

var opNames = map[Op]string{
	OpInvalid: "(bad)", OpNop: "nop", OpJmp: "jmp", OpJcc: "jcc",
	OpJmpInd: "jmp*", OpCall: "call", OpCallInd: "call*", OpRet: "ret",
	OpMovImm: "mov", OpMovReg: "mov", OpLoad: "mov(load)", OpStore: "mov(store)",
	OpAluImm: "alu", OpShiftImm: "shift", OpXorReg: "xor", OpAddReg: "add",
	OpLfence: "lfence", OpMfence: "mfence", OpClflush: "clflush",
	OpRdtsc: "rdtsc", OpSyscall: "syscall", OpHlt: "hlt", OpInt3: "int3",
	OpPush: "push", OpPop: "pop", OpSubReg: "sub", OpCmpReg: "cmp",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond is a conditional-branch condition code (the x86 tttn field).
type Cond uint8

// Supported condition codes.
const (
	CondB  Cond = 0x2 // below (CF=1)
	CondAE Cond = 0x3 // above or equal (CF=0)
	CondZ  Cond = 0x4 // zero (ZF=1)
	CondNZ Cond = 0x5 // not zero (ZF=0)
)

var condNames = map[Cond]string{CondB: "b", CondAE: "ae", CondZ: "z", CondNZ: "nz"}

func (c Cond) String() string {
	if s, ok := condNames[c]; ok {
		return s
	}
	return fmt.Sprintf("cc%d", uint8(c))
}

// AluOp selects the operation of OpAluImm, mirroring the x86 /digit field of
// opcode 81.
type AluOp uint8

// ALU immediate operations.
const (
	AluAdd AluOp = 0 // /0
	AluOr  AluOp = 1 // /1
	AluAnd AluOp = 4 // /4
	AluSub AluOp = 5 // /5
	AluCmp AluOp = 7 // /7
)

var aluNames = map[AluOp]string{AluAdd: "add", AluOr: "or", AluAnd: "and", AluSub: "sub", AluCmp: "cmp"}

func (a AluOp) String() string {
	if s, ok := aluNames[a]; ok {
		return s
	}
	return fmt.Sprintf("alu%d", uint8(a))
}

// BranchClass categorizes an instruction for the branch predictor. This is
// the type that BTB entries record: Phantom exploits the fact that the
// *training* instruction's class, not the victim's, determines the
// prediction semantics (paper Section 5.2).
type BranchClass uint8

// Branch classes, including BrNone for non-branch instructions.
const (
	BrNone    BranchClass = iota
	BrJmp                 // direct unconditional
	BrJmpInd              // indirect unconditional
	BrJcc                 // direct conditional
	BrCall                // direct call
	BrCallInd             // indirect call
	BrRet                 // return
)

var brNames = [...]string{"non-branch", "jmp", "jmp*", "jcc", "call", "call*", "ret"}

func (b BranchClass) String() string {
	if int(b) < len(brNames) {
		return brNames[b]
	}
	return fmt.Sprintf("br(%d)", uint8(b))
}

// Inst is one decoded instruction.
type Inst struct {
	Op   Op
	Len  int   // encoded length in bytes
	Reg  int   // destination (or only) register
	Reg2 int   // source register / memory base register
	Imm  int64 // immediate operand
	Disp int32 // branch displacement or memory displacement
	Cond Cond  // for OpJcc
	Alu  AluOp // for OpAluImm
}

// Class returns the branch class of the instruction.
func (i Inst) Class() BranchClass {
	switch i.Op {
	case OpJmp:
		return BrJmp
	case OpJmpInd:
		return BrJmpInd
	case OpJcc:
		return BrJcc
	case OpCall:
		return BrCall
	case OpCallInd:
		return BrCallInd
	case OpRet:
		return BrRet
	default:
		return BrNone
	}
}

// Target returns the architectural target of a direct branch located at
// pc. It panics for non-direct-branch instructions.
func (i Inst) Target(pc uint64) uint64 {
	switch i.Op {
	case OpJmp, OpJcc, OpCall:
		return pc + uint64(i.Len) + uint64(int64(i.Disp))
	}
	panic("isa: Target on non-direct branch " + i.Op.String())
}

// String disassembles the instruction (AT&T-free, Intel-ish syntax).
func (i Inst) String() string {
	switch i.Op {
	case OpNop:
		return fmt.Sprintf("nop%d", i.Len)
	case OpJmp:
		return fmt.Sprintf("jmp .%+d", i.Disp)
	case OpJcc:
		return fmt.Sprintf("j%s .%+d", i.Cond, i.Disp)
	case OpJmpInd:
		return fmt.Sprintf("jmp *%s", RegName(i.Reg))
	case OpCall:
		return fmt.Sprintf("call .%+d", i.Disp)
	case OpCallInd:
		return fmt.Sprintf("call *%s", RegName(i.Reg))
	case OpRet:
		return "ret"
	case OpMovImm:
		return fmt.Sprintf("mov %s, %#x", RegName(i.Reg), uint64(i.Imm))
	case OpMovReg:
		return fmt.Sprintf("mov %s, %s", RegName(i.Reg), RegName(i.Reg2))
	case OpLoad:
		return fmt.Sprintf("mov %s, [%s%+#x]", RegName(i.Reg), RegName(i.Reg2), i.Disp)
	case OpStore:
		return fmt.Sprintf("mov [%s%+#x], %s", RegName(i.Reg2), i.Disp, RegName(i.Reg))
	case OpAluImm:
		return fmt.Sprintf("%s %s, %#x", i.Alu, RegName(i.Reg), uint64(i.Imm))
	case OpShiftImm:
		if i.Alu == 4 {
			return fmt.Sprintf("shl %s, %d", RegName(i.Reg), i.Imm)
		}
		return fmt.Sprintf("shr %s, %d", RegName(i.Reg), i.Imm)
	case OpXorReg:
		return fmt.Sprintf("xor %s, %s", RegName(i.Reg), RegName(i.Reg2))
	case OpAddReg:
		return fmt.Sprintf("add %s, %s", RegName(i.Reg), RegName(i.Reg2))
	case OpClflush:
		return fmt.Sprintf("clflush [%s%+#x]", RegName(i.Reg2), i.Disp)
	case OpSubReg:
		return fmt.Sprintf("sub %s, %s", RegName(i.Reg), RegName(i.Reg2))
	case OpCmpReg:
		return fmt.Sprintf("cmp %s, %s", RegName(i.Reg), RegName(i.Reg2))
	case OpPush:
		return fmt.Sprintf("push %s", RegName(i.Reg))
	case OpPop:
		return fmt.Sprintf("pop %s", RegName(i.Reg))
	default:
		return i.Op.String()
	}
}
