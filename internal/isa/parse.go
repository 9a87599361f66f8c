package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses textual assembly into machine code at the given base
// address. The syntax mirrors the disassembler's output: one statement per
// line (or ';'-separated), '#' or '//' comments, labels as "name:", and
// Intel-style operands:
//
//	start:
//	    mov rax, 0x40
//	    mov rbx, [rsi+8]
//	    mov [rsi+16], rbx
//	    cmp rax, 10
//	    jb start
//	    jmp *rdi
//	    call fn
//	    ret
//
// Directives: ".org <addr>" pads (with int3) to an absolute address and
// ".align <n>" to a power-of-two boundary. It returns the blob and the
// label symbol table.
func Assemble(src string, base uint64) ([]byte, []Symbol, error) {
	a := NewAssembler(base)
	for lineNo, more := 1, true; more; lineNo++ {
		var line string
		line, src, more = strings.Cut(src, "\n")
		for stmtsLeft := true; stmtsLeft; {
			var stmt string
			stmt, line, stmtsLeft = strings.Cut(line, ";")
			if err := parseStmt(a, stmt); err != nil {
				return nil, nil, fmt.Errorf("isa: line %d: %w", lineNo, err)
			}
		}
	}
	blob, err := a.Bytes()
	if err != nil {
		return nil, nil, err
	}
	return blob, a.Symbols(), nil
}

func parseStmt(a *Assembler, stmt string) error {
	// Strip comments.
	if i := strings.Index(stmt, "#"); i >= 0 {
		stmt = stmt[:i]
	}
	if i := strings.Index(stmt, "//"); i >= 0 {
		stmt = stmt[:i]
	}
	stmt = strings.TrimSpace(stmt)
	if stmt == "" {
		return nil
	}

	// Label, possibly followed by an instruction on the same statement
	// ("loop: add rax, 1").
	if i := strings.Index(stmt, ":"); i >= 0 {
		name := strings.TrimSpace(stmt[:i])
		if name == "" || strings.ContainsAny(name, " \t,[]*") {
			return fmt.Errorf("bad label %q", stmt)
		}
		a.Label(name)
		return parseStmt(a, stmt[i+1:])
	}

	op, rest, _ := strings.Cut(stmt, " ")
	op = strings.ToLower(strings.TrimSpace(op))
	var argBuf [2]string // no mnemonic takes more operands
	args := splitArgs(argBuf[:0], rest)

	switch op {
	case "nop", "nop1":
		return expectArgs(op, args, 0, func() { a.Nop(1) })
	case "nop2", "nop3", "nop4", "nop5":
		n := int(op[3] - '0')
		return expectArgs(op, args, 0, func() { a.Nop(n) })
	case "ret":
		return expectArgs(op, args, 0, func() { a.Ret() })
	case "lfence":
		return expectArgs(op, args, 0, func() { a.Lfence() })
	case "mfence":
		return expectArgs(op, args, 0, func() { a.Mfence() })
	case "rdtsc":
		return expectArgs(op, args, 0, func() { a.Rdtsc() })
	case "syscall":
		return expectArgs(op, args, 0, func() { a.Syscall() })
	case "hlt":
		return expectArgs(op, args, 0, func() { a.Hlt() })
	case "int3":
		return expectArgs(op, args, 0, func() { a.Int3() })

	case "jmp", "call":
		if len(args) != 1 {
			return fmt.Errorf("%s wants one operand", op)
		}
		if reg, ok := strings.CutPrefix(args[0], "*"); ok {
			r, err := parseReg(reg)
			if err != nil {
				return err
			}
			if op == "jmp" {
				a.JmpReg(r)
			} else {
				a.CallReg(r)
			}
			return nil
		}
		if op == "jmp" {
			a.Jmp(args[0])
		} else {
			a.Call(args[0])
		}
		return nil

	case "jz", "jnz", "jb", "jae":
		if len(args) != 1 {
			return fmt.Errorf("%s wants a label", op)
		}
		cond := map[string]Cond{"jz": CondZ, "jnz": CondNZ, "jb": CondB, "jae": CondAE}[op]
		a.Jcc(cond, args[0])
		return nil

	case "push", "pop":
		if len(args) != 1 {
			return fmt.Errorf("%s wants a register", op)
		}
		r, err := parseReg(args[0])
		if err != nil {
			return err
		}
		if op == "push" {
			a.Push(r)
		} else {
			a.Pop(r)
		}
		return nil

	case "clflush":
		if len(args) != 1 {
			return fmt.Errorf("clflush wants a memory operand")
		}
		base, disp, err := parseMem(args[0])
		if err != nil {
			return err
		}
		a.Clflush(base, disp)
		return nil

	case "mov":
		return parseMov(a, args)

	case "add", "or", "and", "sub", "cmp":
		if len(args) != 2 {
			return fmt.Errorf("%s wants two operands", op)
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		if src, ok := regIndex(args[1]); ok {
			switch op {
			case "add":
				a.AddReg(dst, src)
			case "sub":
				a.SubReg(dst, src)
			case "cmp":
				a.CmpReg(dst, src)
			default:
				return fmt.Errorf("%s reg, reg not supported", op)
			}
			return nil
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return err
		}
		aluOps := map[string]AluOp{"add": AluAdd, "or": AluOr, "and": AluAnd, "sub": AluSub, "cmp": AluCmp}
		a.AluImm(aluOps[op], dst, int32(imm))
		return nil

	case "xor":
		if len(args) != 2 {
			return fmt.Errorf("xor wants two registers")
		}
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		src, err := parseReg(args[1])
		if err != nil {
			return err
		}
		a.Xor(dst, src)
		return nil

	case "shl", "shr":
		if len(args) != 2 {
			return fmt.Errorf("%s wants a register and a count", op)
		}
		r, err := parseReg(args[0])
		if err != nil {
			return err
		}
		n, err := parseImm(args[1])
		if err != nil || n < 0 || n > 63 {
			return fmt.Errorf("bad shift count %q", args[1])
		}
		if op == "shl" {
			a.Shl(r, uint8(n))
		} else {
			a.Shr(r, uint8(n))
		}
		return nil

	case ".org":
		if len(args) != 1 {
			return fmt.Errorf(".org wants an address")
		}
		v, err := parseImm(args[0])
		if err != nil {
			return err
		}
		a.Org(uint64(v))
		return nil
	case ".align":
		if len(args) != 1 {
			return fmt.Errorf(".align wants a power of two")
		}
		v, err := parseImm(args[0])
		if err != nil {
			return err
		}
		a.Align(uint64(v))
		return nil
	}
	return fmt.Errorf("unknown mnemonic %q", op)
}

func parseMov(a *Assembler, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("mov wants two operands")
	}
	dstMem := strings.HasPrefix(args[0], "[")
	srcMem := strings.HasPrefix(args[1], "[")
	switch {
	case dstMem && !srcMem: // store
		base, disp, err := parseMem(args[0])
		if err != nil {
			return err
		}
		src, err := parseReg(args[1])
		if err != nil {
			return err
		}
		a.Store(base, disp, src)
		return nil
	case !dstMem && srcMem: // load
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		base, disp, err := parseMem(args[1])
		if err != nil {
			return err
		}
		a.Load(dst, base, disp)
		return nil
	case !dstMem && !srcMem:
		dst, err := parseReg(args[0])
		if err != nil {
			return err
		}
		if src, ok := regIndex(args[1]); ok {
			a.MovReg(dst, src)
			return nil
		}
		imm, err := parseImm(args[1])
		if err != nil {
			// mov reg, label
			a.MovImmLabel(dst, args[1])
			return nil
		}
		a.MovImm(dst, uint64(imm))
		return nil
	}
	return fmt.Errorf("mov mem, mem not supported")
}

// splitArgs appends the operands of a comma-separated list to args,
// trimming whitespace.
func splitArgs(args []string, s string) []string {
	s = strings.TrimSpace(s)
	for more := s != ""; more; {
		var arg string
		arg, s, more = strings.Cut(s, ",")
		args = append(args, strings.TrimSpace(arg))
	}
	return args
}

func parseReg(s string) (int, error) {
	if r, ok := regIndex(s); ok {
		return r, nil
	}
	return 0, fmt.Errorf("unknown register %q", strings.ToLower(strings.TrimSpace(s)))
}

// regIndex is parseReg without the error, for operands that may be
// either a register or something else.
func regIndex(s string) (int, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	for i := 0; i < NumRegs; i++ {
		if s == regNames[i] {
			return i, true
		}
	}
	return 0, false
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow full-range unsigned hex (e.g. 0xffffffff81000000).
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int64(u), nil
	}
	return v, nil
}

// parseMem parses "[reg]", "[reg+disp]" or "[reg-disp]".
func parseMem(s string) (base int, disp int32, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sign := int64(1)
	regPart, dispPart := inner, ""
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		if inner[i] == '-' {
			sign = -1
		}
		regPart, dispPart = inner[:i], inner[i+1:]
	}
	base, err = parseReg(regPart)
	if err != nil {
		return 0, 0, err
	}
	if dispPart != "" {
		d, err := parseImm(dispPart)
		if err != nil {
			return 0, 0, err
		}
		disp = int32(sign * d)
	}
	return base, disp, nil
}

// expectArgs validates the operand count and runs emit.
func expectArgs(op string, args []string, n int, emit func()) error {
	if len(args) != n {
		return fmt.Errorf("%s wants %d operands, got %d", op, n, len(args))
	}
	emit()
	return nil
}
