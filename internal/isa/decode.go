package isa

import "encoding/binary"

// Decode decodes a single instruction from the front of b. It always
// returns an Inst with Len >= 1; bytes that do not form a valid instruction
// decode to OpInvalid with Len 1, which lets the simulated decoder keep
// making progress through arbitrary (e.g. speculatively fetched) bytes —
// exactly the situation Phantom speculation creates.
func Decode(b []byte) Inst {
	if len(b) == 0 {
		return Inst{Op: OpInvalid, Len: 1}
	}

	// Optional prefixes.
	var rexB byte
	var pfxLen uint8
	p := b

	// 66 90 is the 2-byte NOP; 66 is otherwise unused in this subset.
	if p[0] == 0x66 {
		if len(p) >= 2 && p[1] == 0x90 {
			return Inst{Op: OpNop, Len: 2}
		}
		return Inst{Op: OpInvalid, Len: 1}
	}
	if p[0]&0xf0 == 0x40 { // REX
		rexB = p[0]
		pfxLen = 1
		p = p[1:]
		if len(p) == 0 {
			return Inst{Op: OpInvalid, Len: 1}
		}
	}
	rexW := rexB&0x08 != 0
	extR := (rexB & 0x04) << 1 // +8 to ModRM.reg
	extB := rexB & 0x01        // +8 to ModRM.rm / opcode reg

	fail := Inst{Op: OpInvalid, Len: 1}

	switch op := p[0]; {
	case op == 0x90:
		return Inst{Op: OpNop, Len: pfxLen + 1}
	case op == 0xe9: // jmp rel32
		if len(p) < 5 {
			return fail
		}
		return Inst{Op: OpJmp, Len: pfxLen + 5, Disp: int32(binary.LittleEndian.Uint32(p[1:]))}
	case op == 0xe8: // call rel32
		if len(p) < 5 {
			return fail
		}
		return Inst{Op: OpCall, Len: pfxLen + 5, Disp: int32(binary.LittleEndian.Uint32(p[1:]))}
	case op == 0xc3:
		return Inst{Op: OpRet, Len: pfxLen + 1}
	case op == 0xf4:
		return Inst{Op: OpHlt, Len: pfxLen + 1}
	case op == 0xcc:
		return Inst{Op: OpInt3, Len: pfxLen + 1}
	case op >= 0x50 && op <= 0x57:
		return Inst{Op: OpPush, Len: pfxLen + 1, Reg: op - 0x50 + extB*8}
	case op >= 0x58 && op <= 0x5f:
		return Inst{Op: OpPop, Len: pfxLen + 1, Reg: op - 0x58 + extB*8}
	case op >= 0xb8 && op <= 0xbf: // mov reg, imm64 (requires REX.W)
		if !rexW || len(p) < 9 {
			return fail
		}
		return Inst{
			Op: OpMovImm, Len: pfxLen + 9,
			Reg: op - 0xb8 + extB*8,
			Imm: int64(binary.LittleEndian.Uint64(p[1:])),
		}
	case op == 0xff: // group 5: jmp*/call* through register
		if len(p) < 2 {
			return fail
		}
		m := p[1]
		if m>>6 != 3 {
			return fail
		}
		rm := m&7 + extB*8
		switch (m >> 3) & 7 {
		case 2:
			return Inst{Op: OpCallInd, Len: pfxLen + 2, Reg: rm}
		case 4:
			return Inst{Op: OpJmpInd, Len: pfxLen + 2, Reg: rm}
		}
		return fail
	case op == 0x89 || op == 0x8b: // mov r/m,r | mov r,r/m
		if !rexW || len(p) < 2 {
			return fail
		}
		m := p[1]
		reg := (m>>3)&7 + extR
		mod := m >> 6
		rm := m&7 + extB*8
		switch mod {
		case 3: // register-register; only 0x89 direction is emitted
			if op != 0x89 {
				return fail
			}
			return Inst{Op: OpMovReg, Len: pfxLen + 2, Reg: rm, Reg2: reg}
		case 2: // [base+disp32], possibly with SIB for rsp/r12 base
			consumed := 2
			if m&7 == 4 { // SIB
				if len(p) < 3 || p[2] != 0x24 {
					return fail
				}
				consumed = 3
				rm = RSP + extB*8
			}
			if len(p) < consumed+4 {
				return fail
			}
			disp := int32(binary.LittleEndian.Uint32(p[consumed:]))
			if op == 0x8b {
				return Inst{Op: OpLoad, Len: pfxLen + uint8(consumed) + 4, Reg: reg, Reg2: rm, Disp: disp}
			}
			return Inst{Op: OpStore, Len: pfxLen + uint8(consumed) + 4, Reg: reg, Reg2: rm, Disp: disp}
		}
		return fail
	case op == 0x81: // alu r/m64, imm32
		if !rexW || len(p) < 6 {
			return fail
		}
		m := p[1]
		if m>>6 != 3 {
			return fail
		}
		digit := AluOp((m >> 3) & 7)
		switch digit {
		case AluAdd, AluOr, AluAnd, AluSub, AluCmp:
		default:
			return fail
		}
		return Inst{
			Op: OpAluImm, Len: pfxLen + 6, Alu: digit,
			Reg: m&7 + extB*8,
			Imm: int64(int32(binary.LittleEndian.Uint32(p[2:]))),
		}
	case op == 0xc1: // shl/shr r/m64, imm8
		if !rexW || len(p) < 3 {
			return fail
		}
		m := p[1]
		if m>>6 != 3 {
			return fail
		}
		digit := (m >> 3) & 7
		if digit != 4 && digit != 5 {
			return fail
		}
		return Inst{
			Op: OpShiftImm, Len: pfxLen + 3, Alu: AluOp(digit),
			Reg: m&7 + extB*8, Imm: int64(p[2]),
		}
	case op == 0x31 || op == 0x01 || op == 0x29 || op == 0x39: // xor/add/sub/cmp r/m64, r64 (mod=11 only)
		if !rexW || len(p) < 2 {
			return fail
		}
		m := p[1]
		if m>>6 != 3 {
			return fail
		}
		var o Op
		switch op {
		case 0x31:
			o = OpXorReg
		case 0x01:
			o = OpAddReg
		case 0x29:
			o = OpSubReg
		case 0x39:
			o = OpCmpReg
		}
		return Inst{Op: o, Len: pfxLen + 2, Reg: m&7 + extB*8, Reg2: (m>>3)&7 + extR}
	case op == 0x0f:
		return decode0F(p, pfxLen, extR, extB)
	}
	return fail
}

// decode0F decodes two-byte (0F xx) opcodes. p starts at the 0F byte.
func decode0F(p []byte, pfxLen, extR, extB uint8) Inst {
	fail := Inst{Op: OpInvalid, Len: 1}
	if len(p) < 2 {
		return fail
	}
	switch op2 := p[1]; {
	case op2 == 0x31:
		return Inst{Op: OpRdtsc, Len: pfxLen + 2}
	case op2 == 0x05:
		return Inst{Op: OpSyscall, Len: pfxLen + 2}
	case op2 == 0x1f: // multi-byte NOP forms
		if len(p) < 3 {
			return fail
		}
		switch p[2] {
		case 0x00:
			return Inst{Op: OpNop, Len: pfxLen + 3}
		case 0x40:
			if len(p) < 4 {
				return fail
			}
			return Inst{Op: OpNop, Len: pfxLen + 4}
		case 0x44:
			if len(p) < 5 {
				return fail
			}
			return Inst{Op: OpNop, Len: pfxLen + 5}
		}
		return fail
	case op2 == 0xae: // fences / clflush
		if len(p) < 3 {
			return fail
		}
		switch p[2] {
		case 0xe8:
			return Inst{Op: OpLfence, Len: pfxLen + 3}
		case 0xf0:
			return Inst{Op: OpMfence, Len: pfxLen + 3}
		}
		m := p[2]
		if m>>6 == 2 && (m>>3)&7 == 7 { // clflush [base+disp32]
			consumed := 3
			rm := m&7 + extB*8
			if m&7 == 4 {
				if len(p) < 4 || p[3] != 0x24 {
					return fail
				}
				consumed = 4
				rm = RSP + extB*8
			}
			if len(p) < consumed+4 {
				return fail
			}
			return Inst{
				Op: OpClflush, Len: pfxLen + uint8(consumed) + 4,
				Reg2: rm, Disp: int32(binary.LittleEndian.Uint32(p[consumed:])),
			}
		}
		return fail
	case op2 >= 0x80 && op2 <= 0x8f: // jcc rel32
		c := Cond(op2 & 0x0f)
		switch c {
		case CondB, CondAE, CondZ, CondNZ:
		default:
			return fail
		}
		if len(p) < 6 {
			return fail
		}
		return Inst{Op: OpJcc, Len: pfxLen + 6, Cond: c, Disp: int32(binary.LittleEndian.Uint32(p[2:]))}
	}
	return fail
}
