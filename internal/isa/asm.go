package isa

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Assembler builds a machine-code blob at a fixed virtual base address with
// two-pass label resolution. Experiments use it to lay out the training
// snippet A, victim snippet B, signal gadget C and the jmp-series exactly as
// Figures 4 and 5 of the paper describe, at byte-precise page offsets.
type Assembler struct {
	base   uint64
	buf    []byte
	labels map[string]uint64
	fixups []fixup
	err    error
}

// fixup records a rel32 field to patch once labels are known.
type fixup struct {
	off   int    // offset of the rel32 field within buf
	end   uint64 // VA of the end of the branch instruction
	label string
}

// NewAssembler returns an assembler whose first emitted byte lands at base.
// The label map allocates lazily (most experiment snippets bind none) and
// the buffer starts with room for a typical snippet, so assembling the
// short blobs the sweeps build in bulk costs two allocations.
func NewAssembler(base uint64) *Assembler {
	return &Assembler{base: base, buf: make([]byte, 0, 64)}
}

// Base returns the virtual address of the first byte.
func (a *Assembler) Base() uint64 { return a.base }

// PC returns the virtual address of the next byte to be emitted.
func (a *Assembler) PC() uint64 { return a.base + uint64(len(a.buf)) }

// Label binds name to the current PC.
func (a *Assembler) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.fail(fmt.Errorf("duplicate label %q", name))
		return
	}
	if a.labels == nil {
		a.labels = make(map[string]uint64)
	}
	a.labels[name] = a.PC()
}

// MustAddr returns the address of a bound label, panicking if missing.
func (a *Assembler) MustAddr(name string) uint64 {
	v, ok := a.labels[name]
	if !ok {
		panic(fmt.Sprintf("isa: unresolved label %q", name))
	}
	return v
}

// Org pads with int3 bytes up to the given virtual address, which must not
// be behind the current PC. Speculative fetches that run into the padding
// therefore decode as traps rather than as stale instructions.
func (a *Assembler) Org(addr uint64) {
	if addr < a.PC() {
		a.fail(fmt.Errorf("Org(%#x) behind PC %#x", addr, a.PC()))
		return
	}
	pad := make([]byte, addr-a.PC())
	for i := range pad {
		pad[i] = 0xcc
	}
	a.buf = append(a.buf, pad...)
}

// Align pads with int3 to the next multiple of n (a power of two).
func (a *Assembler) Align(n uint64) {
	if n == 0 || n&(n-1) != 0 {
		a.fail(fmt.Errorf("Align(%d): not a power of two", n))
		return
	}
	a.Org((a.PC() + n - 1) &^ (n - 1))
}

func (a *Assembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *Assembler) emit(b []byte) { a.buf = append(a.buf, b...) }

// Nop emits a single NOP of n bytes (1-5).
func (a *Assembler) Nop(n int) { a.emit(EncNop(n)) }

// NopSled emits n bytes worth of NOP instructions.
func (a *Assembler) NopSled(n int) { a.emit(EncNopSled(n)) }

// branchTo emits a rel32 branch (given its opcode bytes before the rel32
// field) to a label, deferring resolution.
func (a *Assembler) branchTo(enc []byte, label string) {
	// enc ends with a 4-byte placeholder displacement.
	off := len(a.buf) + len(enc) - 4
	a.emit(enc)
	a.fixups = append(a.fixups, fixup{off: off, end: a.PC(), label: label})
}

// Jmp emits a direct jmp to label.
func (a *Assembler) Jmp(label string) { a.branchTo(EncJmp(0), label) }

// JmpTo emits a direct jmp to an absolute address.
func (a *Assembler) JmpTo(addr uint64) {
	end := a.PC() + 5
	a.emit(EncJmp(int32(int64(addr) - int64(end))))
}

// Jcc emits a conditional branch to label.
func (a *Assembler) Jcc(c Cond, label string) { a.branchTo(EncJcc(c, 0), label) }

// JccTo emits a conditional branch to an absolute address.
func (a *Assembler) JccTo(c Cond, addr uint64) {
	end := a.PC() + 6
	a.emit(EncJcc(c, int32(int64(addr)-int64(end))))
}

// Call emits a direct call to label.
func (a *Assembler) Call(label string) { a.branchTo(EncCall(0), label) }

// JmpReg emits an indirect jmp through reg.
func (a *Assembler) JmpReg(reg int) { a.emit(EncJmpInd(reg)) }

// CallReg emits an indirect call through reg.
func (a *Assembler) CallReg(reg int) { a.emit(EncCallInd(reg)) }

// Ret emits a near return.
func (a *Assembler) Ret() { a.emit(EncRet()) }

// MovImm emits mov reg, imm64.
func (a *Assembler) MovImm(reg int, imm uint64) { a.emit(EncMovImm(reg, imm)) }

// MovImmLabel emits mov reg, <address of label>, resolved at assembly time.
func (a *Assembler) MovImmLabel(reg int, label string) {
	off := len(a.buf) + len(EncMovImm(reg, 0)) - 8
	a.emit(EncMovImm(reg, 0))
	a.fixups = append(a.fixups, fixup{off: off, end: 0, label: label})
}

// MovReg emits mov dst, src.
func (a *Assembler) MovReg(dst, src int) { a.emit(EncMovReg(dst, src)) }

// Load emits mov dst, [base+disp].
func (a *Assembler) Load(dst, base int, disp int32) { a.emit(EncLoad(dst, base, disp)) }

// Store emits mov [base+disp], src.
func (a *Assembler) Store(base int, disp int32, src int) { a.emit(EncStore(base, disp, src)) }

// AluImm emits op reg, imm32.
func (a *Assembler) AluImm(op AluOp, reg int, imm int32) { a.emit(EncAluImm(op, reg, imm)) }

// Shl emits shl reg, n.
func (a *Assembler) Shl(reg int, n uint8) { a.emit(EncShl(reg, n)) }

// Shr emits shr reg, n.
func (a *Assembler) Shr(reg int, n uint8) { a.emit(EncShr(reg, n)) }

// Xor emits xor dst, src.
func (a *Assembler) Xor(dst, src int) { a.emit(EncXorReg(dst, src)) }

// AddReg emits add dst, src.
func (a *Assembler) AddReg(dst, src int) { a.emit(EncAddReg(dst, src)) }

// SubReg emits sub dst, src.
func (a *Assembler) SubReg(dst, src int) { a.emit(EncSubReg(dst, src)) }

// CmpReg emits cmp x, y (flags from x - y).
func (a *Assembler) CmpReg(x, y int) { a.emit(EncCmpReg(x, y)) }

// Lfence emits lfence.
func (a *Assembler) Lfence() { a.emit(EncLfence()) }

// Mfence emits mfence.
func (a *Assembler) Mfence() { a.emit(EncMfence()) }

// Clflush emits clflush [base+disp].
func (a *Assembler) Clflush(base int, disp int32) { a.emit(EncClflush(base, disp)) }

// Rdtsc emits rdtsc.
func (a *Assembler) Rdtsc() { a.emit(EncRdtsc()) }

// Syscall emits syscall.
func (a *Assembler) Syscall() { a.emit(EncSyscall()) }

// Hlt emits hlt.
func (a *Assembler) Hlt() { a.emit(EncHlt()) }

// Int3 emits int3.
func (a *Assembler) Int3() { a.emit(EncInt3()) }

// Push emits push reg.
func (a *Assembler) Push(reg int) { a.emit(EncPush(reg)) }

// Pop emits pop reg.
func (a *Assembler) Pop(reg int) { a.emit(EncPop(reg)) }

// Bytes resolves all fixups and returns the assembled blob. The blob's
// first byte corresponds to Base().
func (a *Assembler) Bytes() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: unresolved label %q", f.label)
		}
		if f.end == 0 {
			// 64-bit absolute fixup (MovImmLabel).
			binary.LittleEndian.PutUint64(a.buf[f.off:], target)
			continue
		}
		rel := int64(target) - int64(f.end)
		if rel < -1<<31 || rel >= 1<<31 {
			return nil, fmt.Errorf("isa: label %q out of rel32 range (%d)", f.label, rel)
		}
		binary.LittleEndian.PutUint32(a.buf[f.off:], uint32(int32(rel)))
	}
	return a.buf, nil
}

// MustBytes is Bytes, panicking on error. Experiments with hard-coded
// layouts use it.
func (a *Assembler) MustBytes() []byte {
	b, err := a.Bytes()
	if err != nil {
		panic(err)
	}
	return b
}

// Symbols returns all labels sorted by address, for building symbol tables
// of the simulated kernel image.
func (a *Assembler) Symbols() []Symbol {
	out := make([]Symbol, 0, len(a.labels))
	for n, addr := range a.labels {
		out = append(out, Symbol{Name: n, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Symbol is a named address in an assembled blob.
type Symbol struct {
	Name string
	Addr uint64
}

// Disassemble decodes the blob byte stream starting at va and returns one
// line per instruction, useful for debugging experiment layouts.
func Disassemble(blob []byte, va uint64) []string {
	var out []string
	off := 0
	for off < len(blob) {
		in := Decode(blob[off:])
		out = append(out, fmt.Sprintf("%#012x: %s", va+uint64(off), in))
		off += in.Len
	}
	return out
}
