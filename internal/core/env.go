// Package core implements the paper's contribution: the Phantom
// observation channels (Section 5.1), the training×victim misprediction
// matrix (Section 5.2 / Table 1), the µop-cache page-offset experiment
// (Figure 6), cross-privilege BTB collision discovery and function
// recovery (Section 6.2 / Figure 7), the attacker primitives P1/P2/P3
// (Section 6.1), the covert channels (Section 6.4 / Table 2), the KASLR
// and physical-address exploits (Section 7 / Tables 3-5), the MDS-gadget
// kernel leak (Section 7.4) and the mitigation evaluation (Sections 6.3
// and 8).
//
// Everything here plays by attacker rules: experiments observe the
// machine only through timing (rdtsc-equivalent cycle measurements of
// their own fetches and loads), their own cache state, performance
// counters that real unprivileged processes can sample, and architectural
// results of system calls. Simulator ground truth (kernel.Kernel's layout
// fields, pipeline.DebugCounters) is used strictly to *verify* what the
// attacks claim, never to produce it.
//
// Every entry point that builds or resets a machine takes the run's
// context first and binds it to that machine (pipeline.Machine.Bind), or
// boots the kernel with it; attacks on an already-booted kernel inherit
// the kernel's. Once the context is done, the attack fails with its error at
// the next machine run, so cancellation reaches inside every attack
// loop. A nil context leaves the machines unbound.
package core

import (
	"context"
	"fmt"

	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
	"phantom/internal/uarch"
)

// userEnv is a minimal user-space-only machine for the observation-channel
// experiments (Sections 5 and 6 need no kernel: "user space BTB aliasing
// is sufficient for the purposes of building our observational channels").
type userEnv struct {
	m      *pipeline.Machine
	nextPA uint64
}

// userPhysBytes is the physical memory a user-space machine advertises.
const userPhysBytes = 1 << 30

// userMachine returns a machine in the state pipeline.New(p,
// userPhysBytes, seed) gives: a new one when m is nil, else m reset.
// An experiment that lays out one cell or point after another passes
// back the machine it got, so it builds one machine and resets it for
// the rest. A reset counts one pipeline_boots as New does, so telemetry
// counts do not depend on the reuse.
func userMachine(m *pipeline.Machine, p *uarch.Profile, seed int64) *pipeline.Machine {
	if m == nil {
		return pipeline.New(p, userPhysBytes, seed)
	}
	m.Reset(seed)
	return m
}

// newUserEnv lays out user-space mappings on m, which must be in the
// state userMachine returns, and binds ctx to it.
func newUserEnv(ctx context.Context, m *pipeline.Machine) *userEnv {
	m.Bind(ctx)
	return &userEnv{m: m, nextPA: 0x1000000}
}

func (e *userEnv) allocPA(n uint64) uint64 {
	pa := e.nextPA
	e.nextPA += (n + mem.PageSize - 1) &^ (mem.PageSize - 1)
	return pa
}

// mapCode maps user r-x pages covering blob at va and writes it.
func (e *userEnv) mapCode(va uint64, blob []byte) error {
	return e.mapBlob(va, blob, mem.PermRead|mem.PermExec|mem.PermUser)
}

func (e *userEnv) mapBlob(va uint64, blob []byte, perm mem.Perm) error {
	base := va &^ (mem.PageSize - 1)
	end := (va + uint64(len(blob)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if err := e.m.UserAS.Map(base, e.allocPA(end-base), end-base, perm); err != nil {
		return err
	}
	return e.m.UserAS.WriteBytes(va, blob)
}

// mapData maps user rw pages covering [va, va+size).
func (e *userEnv) mapData(va, size uint64) error {
	base := va &^ (mem.PageSize - 1)
	end := (va + size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	return e.m.UserAS.Map(base, e.allocPA(end-base), end-base,
		mem.PermRead|mem.PermWrite|mem.PermUser)
}

// mapAsm assembles and maps executable code.
func (e *userEnv) mapAsm(a *isa.Assembler) error {
	blob, err := a.Bytes()
	if err != nil {
		return err
	}
	return e.mapCode(a.Base(), blob)
}

// pa resolves the physical address behind a user VA (the harness plays
// the role of /proc/self/pagemap here, which real attackers replace with
// the Table 5 technique this package also implements).
func (e *userEnv) pa(va uint64) (uint64, error) {
	pa, f := e.m.UserAS.Translate(va, mem.AccessRead, false)
	if f != nil {
		return 0, f
	}
	return pa, nil
}

// fetchLatencyThreshold distinguishes "came from L1/L2" from "came from
// DRAM" in a timed probe: halfway into the memory latency.
func fetchLatencyThreshold(p *uarch.Profile) int {
	return p.MemLatency / 2
}

// run executes at entry and fails on anything but a clean halt.
func (e *userEnv) run(entry uint64, limit int) error {
	if err := e.m.RunAt(entry, limit).Expect(pipeline.StopHalt); err != nil {
		return fmt.Errorf("core: run at %#x: %w", entry, err)
	}
	return nil
}
