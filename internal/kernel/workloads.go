package kernel

import (
	"fmt"

	"phantom/internal/isa"
	"phantom/internal/pipeline"
)

// Workload is one benchmark program of the UnixBench-style suite used to
// measure the SuppressBPOnNonBr overhead (Section 6.3: "We first measure
// the overhead of setting this bit using UnixBench ... and compute the
// geometric mean across all tests").
type Workload struct {
	Name  string
	Entry uint64
	// Limit bounds the run in interpreted instructions.
	Limit int
}

// Workload layout in user space.
const (
	workloadCodeBase = uint64(0x7f8000000000)
	workloadDataBase = uint64(0x7f9000000000)
	workloadStack    = uint64(0x7fa000000000)
)

// InstallWorkloads assembles and maps the benchmark programs. The mix
// mirrors UnixBench's profile: arithmetic-bound, memory-bound,
// branch-bound, function-call-bound and syscall-bound inner loops.
func (k *Kernel) InstallWorkloads() ([]Workload, error) {
	if err := k.MapUserData(workloadDataBase, 1<<16); err != nil {
		return nil, err
	}
	if err := k.MapUserData(workloadStack, 1<<14); err != nil {
		return nil, err
	}

	var workloads []Workload
	base := workloadCodeBase
	add := func(name string, limit int, build func(a *isa.Assembler)) error {
		a := isa.NewAssembler(base)
		build(a)
		blob, err := a.Bytes()
		if err != nil {
			return fmt.Errorf("kernel: workload %s: %w", name, err)
		}
		if err := k.MapUserCode(base, blob); err != nil {
			return err
		}
		workloads = append(workloads, Workload{Name: name, Entry: base, Limit: limit})
		base += (uint64(len(blob)) + 0xfff) &^ 0xfff
		base += 0x10000
		return nil
	}

	// Dhrystone-like: register arithmetic.
	if err := add("arith", 40000, func(a *isa.Assembler) {
		a.MovImm(isa.RCX, 2000)
		a.MovImm(isa.RAX, 1)
		a.Label("loop")
		a.AluImm(isa.AluAdd, isa.RAX, 12345)
		a.Xor(isa.RAX, isa.RCX)
		a.Shl(isa.RAX, 1)
		a.Shr(isa.RAX, 1)
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "loop")
		a.Hlt()
	}); err != nil {
		return nil, err
	}

	// File-copy-like: sequential loads and stores.
	if err := add("memcopy", 40000, func(a *isa.Assembler) {
		a.MovImm(isa.RSI, workloadDataBase)
		a.MovImm(isa.RDI, workloadDataBase+0x8000)
		a.MovImm(isa.RCX, 1500)
		a.Label("loop")
		a.Load(isa.RAX, isa.RSI, 0)
		a.Store(isa.RDI, 0, isa.RAX)
		a.AluImm(isa.AluAdd, isa.RSI, 8)
		a.AluImm(isa.AluAdd, isa.RDI, 8)
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "loop")
		a.Hlt()
	}); err != nil {
		return nil, err
	}

	// Shell-like: branch-dense alternation.
	if err := add("branchy", 60000, func(a *isa.Assembler) {
		a.MovImm(isa.RCX, 1200)
		a.Label("loop")
		a.MovReg(isa.RAX, isa.RCX)
		a.AluImm(isa.AluAnd, isa.RAX, 1)
		a.AluImm(isa.AluCmp, isa.RAX, 0)
		a.Jcc(isa.CondZ, "even")
		a.AluImm(isa.AluAdd, isa.RBX, 3)
		a.Jmp("join")
		a.Label("even")
		a.AluImm(isa.AluAdd, isa.RBX, 5)
		a.Label("join")
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "loop")
		a.Hlt()
	}); err != nil {
		return nil, err
	}

	// Function-call-bound (UnixBench "shell scripts" / recursion mix).
	if err := add("callret", 50000, func(a *isa.Assembler) {
		a.MovImm(isa.RSP, workloadStack+0x3000)
		a.MovImm(isa.RCX, 1000)
		a.Label("loop")
		a.Call("fn")
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "loop")
		a.Hlt()
		a.Label("fn")
		a.AluImm(isa.AluAdd, isa.RAX, 1)
		a.Ret()
	}); err != nil {
		return nil, err
	}

	// Syscall-bound (UnixBench syscall test).
	if err := add("syscall", 60000, func(a *isa.Assembler) {
		a.MovImm(isa.RCX, 150)
		a.Label("loop")
		a.MovImm(isa.RAX, SysNop)
		a.Syscall()
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "loop")
		a.Hlt()
	}); err != nil {
		return nil, err
	}

	// Large-footprint code (UnixBench binaries far exceed the 4K-µop
	// µop cache): 64 KiB of straight-line work stitched by taken
	// branches, swept three times. Lines continually miss the µop cache,
	// which is where SuppressBPOnNonBr's marker-wait costs show up.
	if err := add("bigcode", 300000, func(a *isa.Assembler) {
		a.MovImm(isa.RCX, 3)
		a.Label("outer")
		const groups = 256
		for g := 0; g < groups; g++ {
			a.Label(fmt.Sprintf("g%d", g))
			a.NopSled(245)
			if g < groups-1 {
				a.Jmp(fmt.Sprintf("g%d", g+1))
			}
		}
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "outer")
		a.Hlt()
	}); err != nil {
		return nil, err
	}

	// Pointer-chase: latency-bound loads.
	if err := add("ptrchase", 50000, func(a *isa.Assembler) {
		a.MovImm(isa.RSI, workloadDataBase+0x100)
		a.MovImm(isa.RCX, 800)
		a.Label("loop")
		a.Load(isa.RSI, isa.RSI, 0)
		a.AluImm(isa.AluOr, isa.RSI, 0) // keep dependency
		a.MovImm(isa.RSI, workloadDataBase+0x100)
		a.Load(isa.RAX, isa.RSI, 0x40)
		a.AluImm(isa.AluSub, isa.RCX, 1)
		a.AluImm(isa.AluCmp, isa.RCX, 0)
		a.Jcc(isa.CondNZ, "loop")
		a.Hlt()
	}); err != nil {
		return nil, err
	}
	return workloads, nil
}

// RunWorkload executes one workload to completion and returns the cycles
// it consumed.
func (k *Kernel) RunWorkload(w Workload) (uint64, error) {
	m := k.M
	start := m.Cycle
	if err := m.RunAt(w.Entry, w.Limit).Expect(pipeline.StopHalt); err != nil {
		return 0, fmt.Errorf("kernel: workload %s: %w", w.Name, err)
	}
	return m.Cycle - start, nil
}
