package isa

import (
	"bytes"
	"testing"
)

func TestAssembleMatchesBuilder(t *testing.T) {
	src := `
start:
    mov rsp, 0x700800
    mov rax, 42          # a comment
    mov rbx, rax
    mov [rsi+8], rbx ; mov rcx, [rsi+8]
    add rax, 1
    cmp rax, 43
    jz done
    jmp start
done:
    xor rax, rax
    shl rbx, 6
    call fn
    hlt
fn:
    push rbp
    pop rbp
    ret
`
	blob, syms, err := Assemble(src, 0x400000)
	if err != nil {
		t.Fatal(err)
	}

	b := NewAssembler(0x400000)
	b.Label("start")
	b.MovImm(RSP, 0x700800)
	b.MovImm(RAX, 42)
	b.MovReg(RBX, RAX)
	b.Store(RSI, 8, RBX)
	b.Load(RCX, RSI, 8)
	b.AluImm(AluAdd, RAX, 1)
	b.AluImm(AluCmp, RAX, 43)
	b.Jcc(CondZ, "done")
	b.Jmp("start")
	b.Label("done")
	b.Xor(RAX, RAX)
	b.Shl(RBX, 6)
	b.Call("fn")
	b.Hlt()
	b.Label("fn")
	b.Push(RBP)
	b.Pop(RBP)
	b.Ret()
	want := b.MustBytes()

	if !bytes.Equal(blob, want) {
		t.Fatalf("parsed blob differs:\n got % x\nwant % x", blob, want)
	}
	if len(syms) != 3 {
		t.Fatalf("symbols = %v", syms)
	}
}

func TestAssembleDirectivesAndIndirect(t *testing.T) {
	src := `
    nop5
    .align 0x40
aligned:
    jmp *rdi
    call *r12
    .org 0x400100
far:
    clflush [rbx+0x40]
    lfence
    rdtsc
    syscall
    jb aligned
    jae far
    jnz far
    int3
`
	blob, syms, err := Assemble(src, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	var aligned, far uint64
	for _, s := range syms {
		switch s.Name {
		case "aligned":
			aligned = s.Addr
		case "far":
			far = s.Addr
		}
	}
	if aligned != 0x400040 {
		t.Fatalf("aligned at %#x", aligned)
	}
	if far != 0x400100 {
		t.Fatalf("far at %#x", far)
	}
	// The blob decodes cleanly end to end.
	off := 0
	for off < len(blob) {
		in := Decode(blob[off:])
		if in.Op == OpInvalid {
			t.Fatalf("undecodable byte at +%#x", off)
		}
		off += int(in.Len)
	}
}

func TestAssembleMovLabel(t *testing.T) {
	src := `
    mov rdi, target
    jmp *rdi
target:
    hlt
`
	blob, syms, err := Assemble(src, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	in := Decode(blob)
	if in.Op != OpMovImm {
		t.Fatalf("first insn %v", in)
	}
	var target uint64
	for _, s := range syms {
		if s.Name == "target" {
			target = s.Addr
		}
	}
	if uint64(in.Imm) != target {
		t.Fatalf("mov label loaded %#x, want %#x", uint64(in.Imm), target)
	}
}

func TestAssembleNegativeDisplacement(t *testing.T) {
	blob, _, err := Assemble("mov rax, [rbp-8]", 0)
	if err != nil {
		t.Fatal(err)
	}
	in := Decode(blob)
	if in.Op != OpLoad || in.Disp != -8 {
		t.Fatalf("decoded %+v", in)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frobnicate rax",
		"mov rax",
		"mov [rax+1], [rbx+2]",
		"jmp",
		"push 42",
		"shl rax, 99",
		"mov rax, [bogus+4]",
		"bad label here:",
		".org zzz",
		"xor rax, 5",
	}
	for _, src := range cases {
		if _, _, err := Assemble(src, 0); err == nil {
			t.Errorf("%q assembled without error", src)
		}
	}
}

func TestAssembleLineNumbersInErrors(t *testing.T) {
	_, _, err := Assemble("nop\nnop\nbogus op", 0)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("line 3")) {
		t.Fatalf("error %v does not cite line 3", err)
	}
}
