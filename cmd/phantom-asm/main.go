// Command phantom-asm is a small assembler/disassembler utility for the
// simulated ISA. It decodes hex byte strings, and can dump the gadget
// sites of the simulated kernel image (the paper's Listings 1-4) as they
// are laid out in memory.
//
// Usage:
//
//	phantom-asm -hex "0f 1f 44 00 00 55 48 89 e5"
//	phantom-asm -asm 'mov rax, 42; jmp *rdi'
//	echo 'loop: add rax, 1; jmp loop' | phantom-asm -asm -
//	phantom-asm -kernel
//
// Exit codes: 0 on success, 1 on runtime errors, 2 on usage errors
// (no mode selected, or bad flags) — matching cmd/phantom.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"phantom/internal/isa"
	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// realMain runs the CLI and returns the process exit code.
func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phantom-asm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hexStr := fs.String("hex", "", "hex bytes to disassemble (spaces optional)")
	asmSrc := fs.String("asm", "", "assembly source to assemble ('-' reads stdin)")
	dumpKernel := fs.Bool("kernel", false, "disassemble the simulated kernel's gadget sites")
	base := fs.Uint64("base", 0x400000, "virtual base address")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *hexStr != "":
		err = disasmHex(stdout, *hexStr, *base)
	case *asmSrc != "":
		err = assembleText(stdout, stdin, *asmSrc, *base)
	case *dumpKernel:
		err = dumpGadgets(stdout)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "phantom-asm: %v\n", err)
		return 1
	}
	return 0
}

// assembleText assembles source (or stdin when src is "-") and prints the
// machine code alongside its disassembly.
func assembleText(w io.Writer, stdin io.Reader, src string, base uint64) error {
	if src == "-" {
		b, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		src = string(b)
	}
	blob, syms, err := isa.Assemble(src, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d bytes at %#x\n", len(blob), base)
	if err := isa.Disassemble(w, blob, base); err != nil {
		return err
	}
	if len(syms) > 0 {
		fmt.Fprintln(w, "symbols:")
		for _, s := range syms {
			fmt.Fprintf(w, "  %#012x %s\n", s.Addr, s.Name)
		}
	}
	fmt.Fprintf(w, "hex: %x\n", blob)
	return nil
}

func disasmHex(w io.Writer, s string, base uint64) error {
	s = strings.NewReplacer(" ", "", "\t", "", "\n", "", "0x", "").Replace(s)
	if len(s)%2 != 0 {
		return fmt.Errorf("odd-length hex string")
	}
	blob := make([]byte, len(s)/2)
	if _, err := fmt.Sscanf(s, "%x", &blob); err != nil {
		// Parse manually: Sscanf %x wants the exact length.
		for i := 0; i < len(blob); i++ {
			if _, err := fmt.Sscanf(s[2*i:2*i+2], "%02x", &blob[i]); err != nil {
				return fmt.Errorf("bad hex at byte %d: %v", i, err)
			}
		}
	}
	return isa.Disassemble(w, blob, base)
}

func dumpGadgets(w io.Writer) error {
	k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: 1, NoiseLevel: 0})
	if err != nil {
		return err
	}
	sites := []struct {
		name  string
		label string
		n     int
		ref   string
	}{
		{"syscall entry", "entry", 20, "dispatcher"},
		{"__task_pid_nr_ns", "getpid_site", 7, "Listing 1 (offset 0xf6520)"},
		{"__fdget_pos", "fdget_pos", 8, "Listing 2 (offset 0x41db60)"},
		{"disclosure gadget", "disclosure_gadget", 2, "Listing 3 (offset 0x41da52)"},
		{"read_data (MDS module)", "mds", 10, "Listing 4"},
		{"P3 disclosure gadget", "mds_disclosure", 5, "Section 6.1"},
		{"covert module", "covert", 5, "Section 6.4"},
	}
	for _, s := range sites {
		va := k.Symbol(s.label)
		fmt.Fprintf(w, "--- %s — %s ---\n", s.name, s.ref)
		blob, err := readKernel(k, va, s.n*10)
		if err != nil {
			return err
		}
		off := 0
		for i := 0; i < s.n && off < len(blob); i++ {
			in := isa.Decode(blob[off:])
			fmt.Fprintf(w, "%#012x (+%#x): %v\n", va+uint64(off), va+uint64(off)-k.ImageBase, in)
			off += int(in.Len)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func readKernel(k *kernel.Kernel, va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		pa, f := k.M.KernelAS.Translate(va+uint64(i), mem.AccessRead, false)
		if f != nil {
			return out[:i], nil
		}
		out[i] = k.M.Phys.Read8(pa)
	}
	return out, nil
}
