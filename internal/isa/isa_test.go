package isa

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeOne decodes b and fails the test if it does not decode to op with
// the exact encoded length.
func decodeOne(t *testing.T, b []byte, op Op) Inst {
	t.Helper()
	in := Decode(b)
	if in.Op != op {
		t.Fatalf("Decode(% x) = %v, want op %v", b, in.Op, op)
	}
	if in.Len != len(b) {
		t.Fatalf("Decode(% x) len = %d, want %d", b, in.Len, len(b))
	}
	return in
}

func TestNopLengths(t *testing.T) {
	for n := 1; n <= 5; n++ {
		b := EncNop(n)
		if len(b) != n {
			t.Fatalf("EncNop(%d) produced %d bytes", n, len(b))
		}
		decodeOne(t, b, OpNop)
	}
}

func TestNopSledDecodesCompletely(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 7, 11, 64, 257} {
		sled := EncNopSled(n)
		if len(sled) != n {
			t.Fatalf("EncNopSled(%d) = %d bytes", n, len(sled))
		}
		off := 0
		for off < len(sled) {
			in := Decode(sled[off:])
			if in.Op != OpNop {
				t.Fatalf("sled(%d) offset %d decodes to %v", n, off, in.Op)
			}
			off += in.Len
		}
	}
}

func TestBranchEncodings(t *testing.T) {
	in := decodeOne(t, EncJmp(0x1234), OpJmp)
	if in.Disp != 0x1234 {
		t.Errorf("jmp disp = %#x", in.Disp)
	}
	in = decodeOne(t, EncJmp(-64), OpJmp)
	if in.Disp != -64 {
		t.Errorf("jmp disp = %d, want -64", in.Disp)
	}
	in = decodeOne(t, EncCall(100), OpCall)
	if in.Disp != 100 {
		t.Errorf("call disp = %d", in.Disp)
	}
	for _, c := range []Cond{CondB, CondAE, CondZ, CondNZ} {
		in = decodeOne(t, EncJcc(c, -5), OpJcc)
		if in.Cond != c || in.Disp != -5 {
			t.Errorf("jcc got cond=%v disp=%d", in.Cond, in.Disp)
		}
	}
	decodeOne(t, EncRet(), OpRet)
}

func TestIndirectBranchAllRegs(t *testing.T) {
	for r := 0; r < NumRegs; r++ {
		in := decodeOne(t, EncJmpInd(r), OpJmpInd)
		if in.Reg != r {
			t.Errorf("jmp* reg = %d, want %d", in.Reg, r)
		}
		in = decodeOne(t, EncCallInd(r), OpCallInd)
		if in.Reg != r {
			t.Errorf("call* reg = %d, want %d", in.Reg, r)
		}
	}
}

func TestMovImmAllRegs(t *testing.T) {
	for r := 0; r < NumRegs; r++ {
		in := decodeOne(t, EncMovImm(r, 0xdeadbeefcafe), OpMovImm)
		if in.Reg != r || uint64(in.Imm) != 0xdeadbeefcafe {
			t.Errorf("mov imm reg=%d imm=%#x", in.Reg, in.Imm)
		}
	}
}

func TestLoadStoreAllRegCombos(t *testing.T) {
	for dst := 0; dst < NumRegs; dst++ {
		for base := 0; base < NumRegs; base++ {
			in := decodeOne(t, EncLoad(dst, base, 0xbe0), OpLoad)
			if in.Reg != dst || in.Reg2 != base || in.Disp != 0xbe0 {
				t.Fatalf("load dst=%d base=%d: got %+v", dst, base, in)
			}
			in = decodeOne(t, EncStore(base, -8, dst), OpStore)
			if in.Reg != dst || in.Reg2 != base || in.Disp != -8 {
				t.Fatalf("store src=%d base=%d: got %+v", dst, base, in)
			}
		}
	}
}

func TestAluAndShift(t *testing.T) {
	for _, op := range []AluOp{AluAdd, AluOr, AluAnd, AluSub, AluCmp} {
		in := decodeOne(t, EncAluImm(op, R12, 0x4000), OpAluImm)
		if in.Alu != op || in.Reg != R12 || in.Imm != 0x4000 {
			t.Errorf("alu %v: got %+v", op, in)
		}
	}
	in := decodeOne(t, EncShl(RBX, 6), OpShiftImm)
	if in.Reg != RBX || in.Imm != 6 || in.Alu != 4 {
		t.Errorf("shl: %+v", in)
	}
	in = decodeOne(t, EncShr(R15, 13), OpShiftImm)
	if in.Reg != R15 || in.Imm != 13 || in.Alu != 5 {
		t.Errorf("shr: %+v", in)
	}
}

func TestRegRegOps(t *testing.T) {
	in := decodeOne(t, EncMovReg(RBP, RSP), OpMovReg)
	if in.Reg != RBP || in.Reg2 != RSP {
		t.Errorf("mov rbp,rsp: %+v", in)
	}
	in = decodeOne(t, EncXorReg(R9, R10), OpXorReg)
	if in.Reg != R9 || in.Reg2 != R10 {
		t.Errorf("xor r9,r10: %+v", in)
	}
	in = decodeOne(t, EncAddReg(RAX, R14), OpAddReg)
	if in.Reg != RAX || in.Reg2 != R14 {
		t.Errorf("add rax,r14: %+v", in)
	}
}

func TestSystemInstructions(t *testing.T) {
	decodeOne(t, EncLfence(), OpLfence)
	decodeOne(t, EncMfence(), OpMfence)
	decodeOne(t, EncRdtsc(), OpRdtsc)
	decodeOne(t, EncSyscall(), OpSyscall)
	decodeOne(t, EncHlt(), OpHlt)
	decodeOne(t, EncInt3(), OpInt3)
	in := decodeOne(t, EncClflush(RSI, 0x40), OpClflush)
	if in.Reg2 != RSI || in.Disp != 0x40 {
		t.Errorf("clflush: %+v", in)
	}
	// SIB-requiring bases.
	in = decodeOne(t, EncClflush(R12, 0), OpClflush)
	if in.Reg2 != R12 {
		t.Errorf("clflush r12 base: %+v", in)
	}
}

func TestPushPop(t *testing.T) {
	for r := 0; r < NumRegs; r++ {
		in := decodeOne(t, EncPush(r), OpPush)
		if in.Reg != r {
			t.Errorf("push %d: %+v", r, in)
		}
		in = decodeOne(t, EncPop(r), OpPop)
		if in.Reg != r {
			t.Errorf("pop %d: %+v", r, in)
		}
	}
}

func TestDecodeNeverZeroLength(t *testing.T) {
	// Property: any byte soup decodes with progress (Len >= 1). This is
	// what lets speculatively fetched garbage flow through the decoder.
	f := func(b []byte) bool {
		if len(b) == 0 {
			return true
		}
		in := Decode(b)
		return in.Len >= 1 && in.Len <= len(b) || in.Op == OpInvalid && in.Len == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	// Property: every encoder output decodes back to itself.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		r1 := rng.Intn(NumRegs)
		r2 := rng.Intn(NumRegs)
		disp := int32(rng.Uint32())
		imm := rng.Uint64()
		var b []byte
		var wantOp Op
		switch rng.Intn(10) {
		case 0:
			b, wantOp = EncJmp(disp), OpJmp
		case 1:
			b, wantOp = EncCall(disp), OpCall
		case 2:
			b, wantOp = EncJmpInd(r1), OpJmpInd
		case 3:
			b, wantOp = EncMovImm(r1, imm), OpMovImm
		case 4:
			b, wantOp = EncLoad(r1, r2, disp), OpLoad
		case 5:
			b, wantOp = EncStore(r2, disp, r1), OpStore
		case 6:
			b, wantOp = EncAluImm(AluCmp, r1, disp), OpAluImm
		case 7:
			b, wantOp = EncXorReg(r1, r2), OpXorReg
		case 8:
			b, wantOp = EncMovReg(r1, r2), OpMovReg
		case 9:
			b, wantOp = EncJcc(CondNZ, disp), OpJcc
		}
		in := Decode(b)
		if in.Op != wantOp || in.Len != len(b) {
			t.Fatalf("roundtrip %v: enc % x dec %+v", wantOp, b, in)
		}
	}
}

func TestInstTarget(t *testing.T) {
	b := EncJmp(0x100)
	in := Decode(b)
	if got := in.Target(0x1000); got != 0x1000+5+0x100 {
		t.Errorf("Target = %#x", got)
	}
	b = EncJcc(CondZ, -0x10)
	in = Decode(b)
	if got := in.Target(0x2000); got != 0x2000+6-0x10 {
		t.Errorf("jcc Target = %#x", got)
	}
}

func TestBranchClassification(t *testing.T) {
	cases := []struct {
		b     []byte
		class BranchClass
	}{
		{EncJmp(0), BrJmp},
		{EncJcc(CondZ, 0), BrJcc},
		{EncJmpInd(RAX), BrJmpInd},
		{EncCall(0), BrCall},
		{EncCallInd(RBX), BrCallInd},
		{EncRet(), BrRet},
		{EncNop(1), BrNone},
		{EncLoad(RAX, RBX, 0), BrNone},
	}
	for _, c := range cases {
		in := Decode(c.b)
		if in.Class() != c.class {
			t.Errorf("class(% x) = %v, want %v", c.b, in.Class(), c.class)
		}
	}
}

func TestAssemblerLabelsAndFixups(t *testing.T) {
	a := NewAssembler(0x400000)
	a.Label("start")
	a.Jmp("end") // forward reference
	a.Label("mid")
	a.NopSled(11)
	a.Jmp("start") // backward reference
	a.Label("end")
	a.Hlt()
	blob, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// First instruction: jmp to "end".
	in := Decode(blob)
	endAddr := a.MustAddr("end")
	if got := in.Target(0x400000); got != endAddr {
		t.Errorf("forward jmp target = %#x, want %#x", got, endAddr)
	}
	// Backward jmp sits after the 11-byte sled.
	midOff := a.MustAddr("mid") - 0x400000
	in2 := Decode(blob[midOff+11:])
	if got := in2.Target(a.MustAddr("mid") + 11); got != 0x400000 {
		t.Errorf("backward jmp target = %#x", got)
	}
}

func TestAssemblerOrgAlign(t *testing.T) {
	a := NewAssembler(0x1000)
	a.Nop(1)
	a.Org(0x1040)
	if a.PC() != 0x1040 {
		t.Fatalf("PC after Org = %#x", a.PC())
	}
	a.Align(0x100)
	if a.PC() != 0x1100 {
		t.Fatalf("PC after Align = %#x", a.PC())
	}
	blob := a.MustBytes()
	if blob[1] != 0xcc {
		t.Errorf("Org padding byte = %#x, want int3", blob[1])
	}

	// The two views of one assembly: the segments laid over an int3 fill
	// are the padded blob. This program has a zero-length Org, an Align
	// at an aligned PC, and a rel32 branch and a MovImmLabel that each
	// reach across a gap.
	a = NewAssembler(0x1000)
	a.Org(0x1000) // zero-length: no gap, no empty segment
	a.Label("top")
	a.Jmp("far")
	a.MovImmLabel(RAX, "far")
	a.Org(0x1040)
	a.Align(0x40) // already aligned
	a.Label("mid")
	a.Jcc(CondZ, "top")
	a.Align(0x100)
	a.Org(0x1300) // a gap right after another
	a.Label("far")
	a.Call("mid")
	a.MovImmLabel(RBX, "top")
	a.Ret()

	blob, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := a.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[0].Addr != 0x1000 || segs[1].Addr != 0x1040 || segs[2].Addr != 0x1300 {
		t.Fatalf("segments %+v, want three at 0x1000, 0x1040, 0x1300", segs)
	}
	over := bytes.Repeat([]byte{0xcc}, int(a.PC()-a.Base()))
	for _, s := range segs {
		copy(over[s.Addr-a.Base():], s.Bytes)
	}
	if !bytes.Equal(over, blob) {
		t.Fatalf("segments over int3:\n% x\nBytes:\n% x", over, blob)
	}
	if in := Decode(blob); in.Op != OpJmp || in.Target(0x1000) != 0x1300 {
		t.Errorf("jmp across the gaps decodes as %v", in)
	}
	if got := binary.LittleEndian.Uint64(blob[5+2:]); got != 0x1300 {
		t.Errorf("mov rax, far = %#x, want 0x1300", got)
	}
	if in := Decode(blob[0x300:]); in.Op != OpCall || in.Target(0x1300) != 0x1040 {
		t.Errorf("call back across a gap decodes as %v", in)
	}
	if got := binary.LittleEndian.Uint64(blob[0x305+2:]); got != 0x1000 {
		t.Errorf("mov rbx, top = %#x, want 0x1000", got)
	}
}

func TestAssemblerOrgBackwardFails(t *testing.T) {
	a := NewAssembler(0x1000)
	a.NopSled(16)
	a.Org(0x1004)
	if _, err := a.Bytes(); err == nil {
		t.Fatal("backward Org did not error")
	}
}

func TestAssemblerDuplicateLabelFails(t *testing.T) {
	a := NewAssembler(0)
	a.Label("x")
	a.Nop(1)
	a.Label("x")
	if _, err := a.Bytes(); err == nil {
		t.Fatal("duplicate label did not error")
	}
}

func TestAssemblerUnresolvedLabelFails(t *testing.T) {
	a := NewAssembler(0)
	a.Jmp("nowhere")
	if _, err := a.Bytes(); err == nil {
		t.Fatal("unresolved label did not error")
	}
}

func TestMovImmLabel(t *testing.T) {
	a := NewAssembler(0x7000)
	a.MovImmLabel(RDI, "tgt")
	a.Hlt()
	a.Label("tgt")
	a.Ret()
	blob := a.MustBytes()
	in := Decode(blob)
	if in.Op != OpMovImm || uint64(in.Imm) != a.MustAddr("tgt") {
		t.Fatalf("MovImmLabel: %+v want imm %#x", in, a.MustAddr("tgt"))
	}
}

func TestSymbols(t *testing.T) {
	a := NewAssembler(0x100)
	a.Label("b")
	a.Nop(4)
	a.Label("a")
	a.MustBytes()
	syms := a.Symbols()
	if len(syms) != 2 || syms[0].Name != "b" || syms[1].Name != "a" {
		t.Fatalf("Symbols = %+v", syms)
	}
}

func TestDisassembleListing1(t *testing.T) {
	// Listing 1 of the paper: nop DWORD PTR [rax+rax*1+0x0]; push rbp;
	// mov rbp, rsp.
	a := NewAssembler(0xffffffff810f6520)
	a.Nop(5)
	a.Push(RBP)
	a.MovReg(RBP, RSP)
	blob := a.MustBytes()
	lines := Disassemble(blob, a.Base())
	if len(lines) != 3 {
		t.Fatalf("Disassemble lines = %d: %v", len(lines), lines)
	}
}

func TestInstStringCoverage(t *testing.T) {
	// Every encodable instruction must disassemble to something readable.
	cases := [][]byte{
		EncNop(1), EncNop(5), EncJmp(4), EncJcc(CondB, -4), EncCall(0),
		EncJmpInd(R12), EncCallInd(RAX), EncRet(), EncMovImm(R8, 42),
		EncMovReg(RAX, RBX), EncLoad(RCX, RDX, 8), EncStore(RSI, -8, RDI),
		EncAluImm(AluAnd, R9, 0xff), EncShl(R10, 6), EncShr(R11, 2),
		EncXorReg(R13, R14), EncAddReg(R15, RAX), EncSubReg(RBX, RCX),
		EncCmpReg(RDX, RSI), EncLfence(), EncMfence(), EncClflush(RBP, 0x40),
		EncRdtsc(), EncSyscall(), EncHlt(), EncInt3(), EncPush(R8), EncPop(RSP),
	}
	for _, b := range cases {
		in := Decode(b)
		if in.Op == OpInvalid {
			t.Fatalf("% x did not decode", b)
		}
		if in.String() == "" || in.String() == "(bad)" {
			t.Fatalf("% x has no disassembly", b)
		}
	}
	if (Inst{Op: OpInvalid}).String() == "" {
		t.Fatal("invalid instruction has no name")
	}
}

func TestRegNameBounds(t *testing.T) {
	if RegName(-1) == "" || RegName(99) == "" || RegName(RAX) != "rax" || RegName(R15) != "r15" {
		t.Fatal("RegName broken")
	}
}

func TestStringerFallbacks(t *testing.T) {
	if Op(200).String() == "" || Cond(9).String() == "" || AluOp(3).String() == "" || BranchClass(9).String() == "" {
		t.Fatal("stringer fallbacks broken")
	}
}
