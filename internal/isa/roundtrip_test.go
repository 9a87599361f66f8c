package isa

import (
	"bytes"
	"math/rand"
	"testing"
)

// randInst samples one instruction uniformly-ish over every encodable
// shape, the same operand space internal/search's program generator
// draws from.
func randInst(rng *rand.Rand) Inst {
	reg := func() uint8 { return uint8(rng.Intn(NumRegs)) }
	disp := func() int32 { return int32(rng.Int63n(1<<31) - 1<<30) }
	conds := []Cond{CondB, CondAE, CondZ, CondNZ}
	alus := []AluOp{AluAdd, AluOr, AluAnd, AluSub, AluCmp}
	switch rng.Intn(24) {
	case 0:
		return Inst{Op: OpNop, Len: uint8(1 + rng.Intn(5))}
	case 1:
		return Inst{Op: OpJmp, Disp: disp()}
	case 2:
		return Inst{Op: OpJcc, Cond: conds[rng.Intn(len(conds))], Disp: disp()}
	case 3:
		return Inst{Op: OpCall, Disp: disp()}
	case 4:
		return Inst{Op: OpJmpInd, Reg: reg()}
	case 5:
		return Inst{Op: OpCallInd, Reg: reg()}
	case 6:
		return Inst{Op: OpRet}
	case 7:
		return Inst{Op: OpMovImm, Reg: reg(), Imm: int64(rng.Uint64())}
	case 8:
		return Inst{Op: OpMovReg, Reg: reg(), Reg2: reg()}
	case 9:
		return Inst{Op: OpLoad, Reg: reg(), Reg2: reg(), Disp: disp()}
	case 10:
		return Inst{Op: OpStore, Reg: reg(), Reg2: reg(), Disp: disp()}
	case 11:
		return Inst{Op: OpAluImm, Alu: alus[rng.Intn(len(alus))], Reg: reg(), Imm: int64(int32(rng.Uint32()))}
	case 12:
		return Inst{Op: OpShiftImm, Alu: AluOp(4 + rng.Intn(2)), Reg: reg(), Imm: int64(rng.Intn(64))}
	case 13:
		return Inst{Op: OpXorReg, Reg: reg(), Reg2: reg()}
	case 14:
		return Inst{Op: OpAddReg, Reg: reg(), Reg2: reg()}
	case 15:
		return Inst{Op: OpSubReg, Reg: reg(), Reg2: reg()}
	case 16:
		return Inst{Op: OpCmpReg, Reg: reg(), Reg2: reg()}
	case 17:
		return Inst{Op: OpLfence}
	case 18:
		return Inst{Op: OpMfence}
	case 19:
		return Inst{Op: OpClflush, Reg2: reg(), Disp: disp()}
	case 20:
		return Inst{Op: OpRdtsc}
	case 21:
		return Inst{Op: OpPush, Reg: reg()}
	case 22:
		return Inst{Op: OpPop, Reg: reg()}
	default:
		return Inst{Op: OpHlt}
	}
}

// fixLen fills in the Len a canonical encoding will have, since the
// sampler builds Insts semantically (Decode is what normally sets Len).
func fixLen(t *testing.T, in Inst) Inst {
	t.Helper()
	if in.Op == OpNop {
		return in // sampler chose the length
	}
	in.Len = 0
	b, err := EncodeInst(in)
	if err == nil {
		in.Len = uint8(len(b))
		return in
	}
	// EncodeInst rejects Len mismatches; retry with the length it said
	// was canonical by probing via a fresh encode of the zero-Len value.
	t.Fatalf("EncodeInst(%+v): %v", in, err)
	return in
}

// TestEncodeDecodeRoundTrip is the property test the search generator
// relies on: for programs built from this package's encoders,
// encode→decode→re-encode is byte-identical, instruction by instruction
// and as a whole blob.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		// Build a short program of random instructions.
		var insts []Inst
		var blob []byte
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			in := fixLen(t, randInst(rng))
			b, err := EncodeInst(in)
			if err != nil {
				t.Fatalf("trial %d: EncodeInst(%+v): %v", trial, in, err)
			}
			insts = append(insts, in)
			blob = append(blob, b...)
		}

		// Walk the blob with the decoder and re-encode each instruction.
		off := 0
		for i, want := range insts {
			got := Decode(blob[off:])
			if got != want {
				t.Fatalf("trial %d inst %d: decode mismatch\nbytes: % x\n got: %+v\nwant: %+v",
					trial, i, blob[off:off+int(want.Len)], got, want)
			}
			re, err := EncodeInst(got)
			if err != nil {
				t.Fatalf("trial %d inst %d: re-encode %+v: %v", trial, i, got, err)
			}
			if !bytes.Equal(re, blob[off:off+int(want.Len)]) {
				t.Fatalf("trial %d inst %d: re-encode not byte-identical\n got: % x\nwant: % x",
					trial, i, re, blob[off:off+int(want.Len)])
			}
			off += int(want.Len)
		}
		if off != len(blob) {
			t.Fatalf("trial %d: decoder consumed %d of %d bytes", trial, off, len(blob))
		}
	}
}

// TestDecodeTotalOnRandomBytes asserts decode totality: arbitrary byte
// strings, decoded at every offset, never panic and always make
// progress (1 <= Len <= 15). Failures report the offending bytes.
func TestDecodeTotalOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		for off := 0; off <= len(buf); off++ {
			in := Decode(buf[off:])
			if in.Len < 1 || in.Len > 15 {
				t.Fatalf("trial %d offset %d: Len %d out of [1,15]\nbytes: % x",
					trial, off, in.Len, buf[off:])
			}
		}
	}
}

// TestEncodeDecodeRoundTripTruncations asserts that every strict prefix
// of a canonical encoding decodes to something (usually OpInvalid)
// without panicking — the situation a speculative fetch at a page
// boundary creates.
func TestEncodeDecodeRoundTripTruncations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		in := fixLen(t, randInst(rng))
		b, err := EncodeInst(in)
		if err != nil {
			t.Fatalf("trial %d: EncodeInst(%+v): %v", trial, in, err)
		}
		for cut := 0; cut < len(b); cut++ {
			got := Decode(b[:cut])
			if got.Len < 1 {
				t.Fatalf("trial %d: truncated decode made no progress\nbytes: % x", trial, b[:cut])
			}
		}
	}
}

// TestEncodeInstRejects pins the error paths: undecodable input and
// non-canonical lengths must be reported, not guessed at.
func TestEncodeInstRejects(t *testing.T) {
	cases := []Inst{
		{Op: OpInvalid, Len: 1},
		{Op: OpNop, Len: 7},
		{Op: OpJmp, Len: 9, Disp: 4}, // canonical jmp rel32 is 5 bytes
	}
	for _, in := range cases {
		if b, err := EncodeInst(in); err == nil {
			t.Errorf("EncodeInst(%+v) = % x, want error", in, b)
		}
	}
}
