package isa

import (
	"encoding/binary"
	"fmt"
)

// rex builds a REX prefix byte. w selects 64-bit operand size, r extends the
// ModRM reg field, b extends the ModRM rm (or opcode-embedded register)
// field.
func rex(w bool, reg, rm int) (byte, bool) {
	v := byte(0x40)
	need := false
	if w {
		v |= 0x08
		need = true
	}
	if reg >= 8 {
		v |= 0x04
		need = true
	}
	if rm >= 8 {
		v |= 0x01
		need = true
	}
	return v, need
}

// modrm assembles a ModRM byte from its three fields (register numbers are
// taken modulo 8; REX carries the high bits).
func modrm(mod, reg, rm int) byte {
	return byte(mod<<6 | (reg&7)<<3 | rm&7)
}

// appendImm32 appends a little-endian 32-bit immediate.
func appendImm32(b []byte, v int32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(v))
	return append(b, tmp[:]...)
}

// appendImm64 appends a little-endian 64-bit immediate.
func appendImm64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

// memOperand encodes a mod=10 (disp32) memory operand with the given base
// register, inserting the SIB byte that x86 requires when the base is
// RSP/R12.
func memOperand(b []byte, reg, base int, disp int32) []byte {
	if base&7 == RSP {
		b = append(b, modrm(2, reg, RSP), 0x24) // SIB: scale=1, no index, base=rsp/r12
	} else {
		b = append(b, modrm(2, reg, base))
	}
	return appendImm32(b, disp)
}

// EncNop returns an n-byte NOP, n in [1,5]. These are the canonical x86
// multi-byte NOP encodings; Listing 1 of the paper begins with the 5-byte
// form (0F 1F 44 00 00, "nop DWORD PTR [rax+rax*1+0x0]").
func EncNop(n int) []byte {
	switch n {
	case 1:
		return []byte{0x90}
	case 2:
		return []byte{0x66, 0x90}
	case 3:
		return []byte{0x0f, 0x1f, 0x00}
	case 4:
		return []byte{0x0f, 0x1f, 0x40, 0x00}
	case 5:
		return []byte{0x0f, 0x1f, 0x44, 0x00, 0x00}
	}
	panic(fmt.Sprintf("isa: unsupported nop length %d", n))
}

// EncNopSled returns n bytes of NOP instructions, preferring long forms.
func EncNopSled(n int) []byte {
	out := make([]byte, 0, n)
	for n > 0 {
		k := n
		if k > 5 {
			k = 5
		}
		out = append(out, EncNop(k)...)
		n -= k
	}
	return out
}

// EncJmp returns a direct jmp with the given rel32 displacement.
func EncJmp(rel int32) []byte { return appendImm32([]byte{0xe9}, rel) }

// EncJcc returns a conditional branch with the given condition and rel32.
func EncJcc(c Cond, rel int32) []byte {
	return appendImm32([]byte{0x0f, 0x80 | byte(c)}, rel)
}

// EncCall returns a direct call with the given rel32 displacement.
func EncCall(rel int32) []byte { return appendImm32([]byte{0xe8}, rel) }

// EncJmpInd returns a register-indirect jmp through reg.
func EncJmpInd(reg int) []byte {
	var b []byte
	if p, need := rex(false, 0, reg); need {
		b = append(b, p)
	}
	return append(b, 0xff, modrm(3, 4, reg))
}

// EncCallInd returns a register-indirect call through reg.
func EncCallInd(reg int) []byte {
	var b []byte
	if p, need := rex(false, 0, reg); need {
		b = append(b, p)
	}
	return append(b, 0xff, modrm(3, 2, reg))
}

// EncRet returns a near return.
func EncRet() []byte { return []byte{0xc3} }

// EncMovImm returns mov reg, imm64.
func EncMovImm(reg int, imm uint64) []byte {
	p, _ := rex(true, 0, reg)
	return appendImm64([]byte{p, 0xb8 + byte(reg&7)}, imm)
}

// EncMovReg returns mov dst, src (register to register, 64-bit).
func EncMovReg(dst, src int) []byte {
	p, _ := rex(true, src, dst)
	return []byte{p, 0x89, modrm(3, src, dst)}
}

// EncLoad returns mov dst, [base+disp32].
func EncLoad(dst, base int, disp int32) []byte {
	p, _ := rex(true, dst, base)
	return memOperand([]byte{p, 0x8b}, dst, base, disp)
}

// EncStore returns mov [base+disp32], src.
func EncStore(base int, disp int32, src int) []byte {
	p, _ := rex(true, src, base)
	return memOperand([]byte{p, 0x89}, src, base, disp)
}

// EncAluImm returns <op> reg, imm32 with op one of AluAdd/AluOr/AluAnd/
// AluSub/AluCmp (the 81 /digit group).
func EncAluImm(op AluOp, reg int, imm int32) []byte {
	p, _ := rex(true, 0, reg)
	return appendImm32([]byte{p, 0x81, modrm(3, int(op), reg)}, imm)
}

// EncShl returns shl reg, imm8.
func EncShl(reg int, n uint8) []byte {
	p, _ := rex(true, 0, reg)
	return []byte{p, 0xc1, modrm(3, 4, reg), n}
}

// EncShr returns shr reg, imm8.
func EncShr(reg int, n uint8) []byte {
	p, _ := rex(true, 0, reg)
	return []byte{p, 0xc1, modrm(3, 5, reg), n}
}

// EncXorReg returns xor dst, src (64-bit).
func EncXorReg(dst, src int) []byte {
	p, _ := rex(true, src, dst)
	return []byte{p, 0x31, modrm(3, src, dst)}
}

// EncSubReg returns sub dst, src (64-bit).
func EncSubReg(dst, src int) []byte {
	p, _ := rex(true, src, dst)
	return []byte{p, 0x29, modrm(3, src, dst)}
}

// EncCmpReg returns cmp a, b (64-bit; sets ZF/CF from a - b).
func EncCmpReg(a, b int) []byte {
	p, _ := rex(true, b, a)
	return []byte{p, 0x39, modrm(3, b, a)}
}

// EncAddReg returns add dst, src (64-bit).
func EncAddReg(dst, src int) []byte {
	p, _ := rex(true, src, dst)
	return []byte{p, 0x01, modrm(3, src, dst)}
}

// EncLfence returns an lfence (dispatch-serializing barrier; paper §2.4).
func EncLfence() []byte { return []byte{0x0f, 0xae, 0xe8} }

// EncMfence returns an mfence.
func EncMfence() []byte { return []byte{0x0f, 0xae, 0xf0} }

// EncClflush returns clflush [base+disp32]. (Real x86 uses 0F AE /7; we use
// the mod=10 form uniformly to avoid RIP-relative special cases.)
func EncClflush(base int, disp int32) []byte {
	var b []byte
	if p, need := rex(false, 0, base); need {
		b = append(b, p)
	}
	b = append(b, 0x0f, 0xae)
	return memOperand(b, 7, base, disp)
}

// EncRdtsc returns rdtsc. The simulator deposits the full 64-bit cycle
// counter in RAX.
func EncRdtsc() []byte { return []byte{0x0f, 0x31} }

// EncSyscall returns syscall.
func EncSyscall() []byte { return []byte{0x0f, 0x05} }

// EncHlt returns hlt, which ends a simulator run.
func EncHlt() []byte { return []byte{0xf4} }

// EncInt3 returns int3 (breakpoint trap).
func EncInt3() []byte { return []byte{0xcc} }

// EncPush returns push reg.
func EncPush(reg int) []byte {
	if reg >= 8 {
		return []byte{0x41, 0x50 + byte(reg&7)}
	}
	return []byte{0x50 + byte(reg)}
}

// EncPop returns pop reg.
func EncPop(reg int) []byte {
	if reg >= 8 {
		return []byte{0x41, 0x58 + byte(reg&7)}
	}
	return []byte{0x58 + byte(reg)}
}

// EncodeInst re-encodes a decoded instruction into its canonical byte
// form — the inverse of Decode for every instruction this package's
// encoders emit. Decode tolerates some redundant encodings (e.g. a
// REX prefix on a one-byte NOP) that the encoders never produce; when
// the canonical re-encoding would not reproduce in.Len bytes, or the
// instruction is OpInvalid, EncodeInst reports an error instead of
// silently changing the byte stream. The round-trip property
// encode→decode→re-encode == identity is pinned by the tests in
// roundtrip_test.go, its only callers.
func EncodeInst(in Inst) ([]byte, error) {
	var b []byte
	switch in.Op {
	case OpNop:
		if in.Len < 1 || in.Len > 5 {
			return nil, fmt.Errorf("isa: no canonical %d-byte nop", in.Len)
		}
		b = EncNop(in.Len)
	case OpJmp:
		b = EncJmp(in.Disp)
	case OpJcc:
		b = EncJcc(in.Cond, in.Disp)
	case OpCall:
		b = EncCall(in.Disp)
	case OpJmpInd:
		b = EncJmpInd(in.Reg)
	case OpCallInd:
		b = EncCallInd(in.Reg)
	case OpRet:
		b = EncRet()
	case OpMovImm:
		b = EncMovImm(in.Reg, uint64(in.Imm))
	case OpMovReg:
		b = EncMovReg(in.Reg, in.Reg2)
	case OpLoad:
		b = EncLoad(in.Reg, in.Reg2, in.Disp)
	case OpStore:
		b = EncStore(in.Reg2, in.Disp, in.Reg)
	case OpAluImm:
		b = EncAluImm(in.Alu, in.Reg, int32(in.Imm))
	case OpShiftImm:
		if in.Alu == 4 {
			b = EncShl(in.Reg, uint8(in.Imm))
		} else {
			b = EncShr(in.Reg, uint8(in.Imm))
		}
	case OpXorReg:
		b = EncXorReg(in.Reg, in.Reg2)
	case OpAddReg:
		b = EncAddReg(in.Reg, in.Reg2)
	case OpSubReg:
		b = EncSubReg(in.Reg, in.Reg2)
	case OpCmpReg:
		b = EncCmpReg(in.Reg, in.Reg2)
	case OpLfence:
		b = EncLfence()
	case OpMfence:
		b = EncMfence()
	case OpClflush:
		b = EncClflush(in.Reg2, in.Disp)
	case OpRdtsc:
		b = EncRdtsc()
	case OpSyscall:
		b = EncSyscall()
	case OpHlt:
		b = EncHlt()
	case OpInt3:
		b = EncInt3()
	case OpPush:
		b = EncPush(in.Reg)
	case OpPop:
		b = EncPop(in.Reg)
	default:
		return nil, fmt.Errorf("isa: cannot encode %v", in.Op)
	}
	// Len 0 means the caller built the Inst by hand and has no length
	// expectation; decoder-produced Insts always carry one.
	if in.Len != 0 && len(b) != in.Len {
		return nil, fmt.Errorf("isa: %v decoded from a non-canonical %d-byte encoding (canonical is %d)",
			in.Op, in.Len, len(b))
	}
	return b, nil
}
