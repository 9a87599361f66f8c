package isa

import "testing"

// FuzzDecode asserts the decoder's two safety contracts on arbitrary
// bytes: it never panics, and it always reports a length that makes
// forward progress without exceeding the x86 limit (1 <= Len <= 15).
// Both matter beyond ordinary robustness — the simulated wrong-path
// walker feeds the decoder whatever bytes speculative fetch lands on,
// and the predecode cache indexes arrays by offsets derived from Len.
func FuzzDecode(f *testing.F) {
	// Historical edge cases: a lone 0x66 prefix, a lone REX prefix, a
	// rel32 jump cut short, the 2-byte NOP, a REX-prefixed mov with a
	// truncated imm64, a lone two-byte-opcode escape, and empty input.
	f.Add([]byte{0x66})
	f.Add([]byte{0x48})
	f.Add([]byte{0xe9, 0x01})
	f.Add([]byte{0x66, 0x90})
	f.Add([]byte{0x48, 0xb8, 0x01, 0x02, 0x03})
	f.Add([]byte{0x0f})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		in := Decode(b)
		if in.Len < 1 || in.Len > 15 {
			t.Fatalf("Decode(%x) = %+v: Len %d outside [1, 15]", b, in, in.Len)
		}
		if in.Op != OpInvalid && in.Len > len(b) && len(b) > 0 {
			t.Fatalf("Decode(%x) = %+v: valid instruction longer than its input", b, in)
		}
	})
}

// FuzzAssemble asserts the assembler's contracts on arbitrary source and
// base address, which is phantom-asm's input: Assemble never panics, and
// a blob it returns decodes from its base into valid instructions, none
// of them OpInvalid, that end exactly at the blob's end. The predecode
// cache and the wrong-path walker read assembled code back only through
// Decode, so a blob that broke this would be run as something else.
// The committed seed corpus holds the search corpus's victim and gadget
// blocks, phantom-asm's usage examples, and an .org past the layout
// ceiling.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, base uint64) {
		blob, _, err := Assemble(src, base)
		if err != nil {
			return
		}
		off := 0
		for off < len(blob) {
			in := Decode(blob[off:])
			if in.Op == OpInvalid {
				t.Fatalf("Assemble(%q, %#x): invalid instruction at offset %d of %d: % x",
					src, base, off, len(blob), blob[off:min(off+15, len(blob))])
			}
			off += in.Len
		}
		if off != len(blob) {
			t.Fatalf("Assemble(%q, %#x): the last instruction ends at offset %d, past the %d-byte blob", src, base, off, len(blob))
		}
	})
}
