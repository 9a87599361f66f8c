package isa

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Assembler builds a machine-code blob at a fixed virtual base address with
// two-pass label resolution. Experiments use it to lay out the training
// snippet A, victim snippet B, signal gadget C and the jmp-series exactly as
// Figures 4 and 5 of the paper describe, at byte-precise page offsets.
//
// Org and Align leave gaps rather than padding bytes: buf holds only the
// emitted bytes, and runs records where each stretch of them lands. A
// blob is those runs laid over an int3 fill, which Segments returns as
// is (a kernel boot writes its 309 bytes of code, not 4 MiB of padding)
// and Bytes flattens.
type Assembler struct {
	base   uint64
	buf    []byte   // every emitted byte, gaps omitted
	runs   []run    // starts of the runs after the first, which is {base, 0}
	labels []Symbol // in binding order
	fixups []fixup
	err    error
}

// run marks that buf[off:], up to the next run's off, lands at addr.
type run struct {
	addr uint64
	off  int
}

// fixup records a rel32 field to patch once labels are known.
type fixup struct {
	off   int    // offset of the rel32 field within buf
	end   uint64 // VA of the end of the branch instruction
	label string
}

// Segment is one run of emitted bytes and the address of its first byte.
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// NewAssembler returns an assembler whose first emitted byte lands at base.
// The label list allocates lazily (most experiment snippets bind none) and
// the buffer starts with room for a typical snippet, so assembling the
// short blobs the sweeps build in bulk costs two allocations.
func NewAssembler(base uint64) *Assembler {
	return &Assembler{base: base, buf: make([]byte, 0, 64)}
}

// Base returns the virtual address of the first byte.
func (a *Assembler) Base() uint64 { return a.base }

// PC returns the virtual address of the next byte to be emitted.
func (a *Assembler) PC() uint64 {
	if n := len(a.runs); n > 0 {
		r := a.runs[n-1]
		return r.addr + uint64(len(a.buf)-r.off)
	}
	return a.base + uint64(len(a.buf))
}

// Label binds name to the current PC.
func (a *Assembler) Label(name string) {
	if _, dup := a.addr(name); dup {
		a.fail(fmt.Errorf("duplicate label %q", name))
		return
	}
	a.labels = append(a.labels, Symbol{Name: name, Addr: a.PC()})
}

// addr looks a bound label up. A snippet binds a few labels and the
// kernel image about twenty, so a scan beats building a map.
func (a *Assembler) addr(name string) (uint64, bool) {
	for _, s := range a.labels {
		if s.Name == name {
			return s.Addr, true
		}
	}
	return 0, false
}

// MustAddr returns the address of a bound label, panicking if missing.
func (a *Assembler) MustAddr(name string) uint64 {
	v, ok := a.addr(name)
	if !ok {
		panic(fmt.Sprintf("isa: unresolved label %q", name))
	}
	return v
}

// MaxLayout is the largest span from Base to PC that Org and Align may
// lay out. Bytes allocates and fills the whole span, so an .org in one
// line of source could otherwise ask for terabytes. The largest layout
// the simulator builds is the 5 MiB kernel text; this is 8 MiB.
const MaxLayout = 8 << 20

// Org moves the PC forward to the given virtual address, which must not be
// behind it nor more than MaxLayout bytes past Base. The gap reads as int3
// bytes, so speculative fetches that run into it decode as traps rather
// than as stale instructions.
func (a *Assembler) Org(addr uint64) {
	switch pc := a.PC(); {
	case addr < pc:
		a.fail(fmt.Errorf("Org(%#x) behind PC %#x", addr, pc))
	case addr-a.base > MaxLayout:
		a.fail(fmt.Errorf("Org(%#x) lays out %#x bytes from base %#x, over the ceiling of %#x", addr, addr-a.base, a.base, MaxLayout))
	case addr > pc:
		a.runs = append(a.runs, run{addr: addr, off: len(a.buf)})
	}
}

// Align moves the PC to the next multiple of n (a power of two), leaving
// an int3 gap as Org does.
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

// resolve patches every fixup with its label's address.
func (a *Assembler) resolve() error {
	if a.err != nil {
		return a.err
	}
	for _, f := range a.fixups {
		target, ok := a.addr(f.label)
		if !ok {
			return fmt.Errorf("isa: unresolved label %q", f.label)
		}
		if f.end == 0 {
			// 64-bit absolute fixup (MovImmLabel).
			binary.LittleEndian.PutUint64(a.buf[f.off:], target)
			continue
		}
		rel := int64(target) - int64(f.end)
		if rel < -1<<31 || rel >= 1<<31 {
			return fmt.Errorf("isa: label %q out of rel32 range (%d)", f.label, rel)
		}
		binary.LittleEndian.PutUint32(a.buf[f.off:], uint32(int32(rel)))
	}
	return nil
}

// Segments resolves all fixups and returns the non-empty runs of emitted
// bytes in address order. Every address in [Base(), PC()) outside them
// is an int3 gap. The slices alias the assembler's buffer.
func (a *Assembler) Segments() ([]Segment, error) {
	if err := a.resolve(); err != nil {
		return nil, err
	}
	segs := make([]Segment, 0, len(a.runs)+1)
	for i := 0; i <= len(a.runs); i++ {
		r, end := run{addr: a.base}, len(a.buf)
		if i > 0 {
			r = a.runs[i-1]
		}
		if i < len(a.runs) {
			end = a.runs[i].off
		}
		if end > r.off {
			segs = append(segs, Segment{Addr: r.addr, Bytes: a.buf[r.off:end:end]})
		}
	}
	return segs, nil
}

// Bytes resolves all fixups and returns the assembled blob: the segments
// laid over int3 from Base() to PC(). The blob's first byte corresponds to
// Base().
func (a *Assembler) Bytes() ([]byte, error) {
	if len(a.runs) == 0 {
		// No gaps: the emitted bytes are the blob.
		if err := a.resolve(); err != nil {
			return nil, err
		}
		return a.buf, nil
	}
	segs, err := a.Segments()
	if err != nil {
		return nil, err
	}
	blob := bytes.Repeat(EncInt3(), int(a.PC()-a.base))
	for _, s := range segs {
		copy(blob[s.Addr-a.base:], s.Bytes)
	}
	return blob, nil
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
	out := append([]Symbol(nil), a.labels...)
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

// Disassemble decodes the blob byte stream starting at va and writes one
// line per instruction to w, useful for debugging experiment layouts.
// Lines stream through one buffer as they are decoded, so an 8 MiB
// layout prints in constant memory.
func Disassemble(w io.Writer, blob []byte, va uint64) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for off := 0; off < len(blob); {
		in := Decode(blob[off:])
		line = appendAddr(line[:0], va+uint64(off))
		line = append(line, ": "...)
		line = append(line, in.String()...)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
		off += int(in.Len)
	}
	return bw.Flush()
}

// appendAddr appends va as fmt's %#012x prints it: 0x, then at least
// twelve hex digits.
func appendAddr(b []byte, va uint64) []byte {
	var digits [16]byte
	hex := strconv.AppendUint(digits[:0], va, 16)
	b = append(b, "0x"...)
	for n := len(hex); n < 12; n++ {
		b = append(b, '0')
	}
	return append(b, hex...)
}
