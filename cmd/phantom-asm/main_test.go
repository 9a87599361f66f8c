package main

import (
	"io"
	"strings"
	"testing"
)

func TestDisasmHex(t *testing.T) {
	if err := disasmHex(io.Discard, "0f1f440000554889e5", 0x400000); err != nil {
		t.Fatal(err)
	}
	if err := disasmHex(io.Discard, "0f 1f 44 00 00", 0); err != nil {
		t.Fatal(err)
	}
	if err := disasmHex(io.Discard, "0f1", 0); err == nil {
		t.Fatal("odd-length hex accepted")
	}
	if err := disasmHex(io.Discard, "zz", 0); err == nil {
		t.Fatal("non-hex accepted")
	}
}

func TestDumpGadgets(t *testing.T) {
	if err := dumpGadgets(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleText(t *testing.T) {
	if err := assembleText(io.Discard, nil, "start: mov rax, 1; jmp start", 0x400000); err != nil {
		t.Fatal(err)
	}
	if err := assembleText(io.Discard, nil, "bogus", 0); err == nil {
		t.Fatal("bad source accepted")
	}
	if err := assembleText(io.Discard, strings.NewReader("mov rax, 7"), "-", 0); err != nil {
		t.Fatalf("stdin source: %v", err)
	}
}

// TestExitCodes pins the CLI convention shared by all three binaries:
// 0 success, 1 runtime error, 2 usage error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no mode", nil, 2},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"bad hex", []string{"-hex", "zz"}, 1},
		{"bad asm", []string{"-asm", "bogus"}, 1},
		{"good hex", []string{"-hex", "0f1f440000"}, 0},
		{"good asm", []string{"-asm", "mov rax, 1"}, 0},
		// A layout past isa.MaxLayout is refused before Bytes allocates it.
		{"far org", []string{"-asm", "nop; .org 0x7fffffffffff; ret"}, 1},
		{"far align", []string{"-asm", "nop; .align 0x40000000"}, 1},
	}
	for _, c := range cases {
		if got := realMain(c.args, strings.NewReader(""), io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: realMain(%v) = %d, want %d", c.name, c.args, got, c.want)
		}
	}
}
