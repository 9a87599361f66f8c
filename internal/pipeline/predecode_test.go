package pipeline

import (
	"context"
	"errors"
	"testing"

	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

// loopProgram assembles a small countdown loop at base: rcx iterations,
// rax accumulates 1 per iteration.
func loopProgram(base uint64, iters int64) *isa.Assembler {
	a := isa.NewAssembler(base)
	a.MovImm(isa.RCX, uint64(iters))
	a.MovImm(isa.RAX, 0)
	a.Label("loop")
	a.AluImm(isa.AluAdd, isa.RAX, 1)
	a.AluImm(isa.AluSub, isa.RCX, 1)
	a.Jcc(isa.CondNZ, "loop")
	a.Hlt()
	return a
}

func TestPredecodeCacheHitsOnLoop(t *testing.T) {
	m := newTestMachine(t, uarch.Zen2())
	installCode(t, m, loopProgram(0x400000, 50))
	if res := m.RunAt(0x400000, 10000); res.Reason != StopHalt {
		t.Fatalf("run: %v", res)
	}
	if m.Regs[isa.RAX] != 50 {
		t.Fatalf("rax = %d", m.Regs[isa.RAX])
	}
	if m.Debug.PredecodeMisses == 0 {
		t.Fatal("no predecode misses: cache never filled")
	}
	if m.Debug.PredecodeHits <= m.Debug.PredecodeMisses {
		t.Fatalf("hits=%d misses=%d: a 50-iteration loop should hit far more than it fills",
			m.Debug.PredecodeHits, m.Debug.PredecodeMisses)
	}
}

// TestPredecodeResetKeepsChunks: a reset cache hands out the lines of
// every chunk it made before, in the same order and each one empty,
// without allocating, and a line past them all is a new one.
func TestPredecodeResetKeepsChunks(t *testing.T) {
	c := newPredecodeCache()
	const n = 3*predecodeArenaLines + 1
	var first [n]*predecodeLine
	for i := range first {
		first[i] = c.newLine()
		first[i].decoded = 1
	}
	c.reset()
	for i := range first {
		if pl := c.newLine(); pl != first[i] || pl.decoded != 0 {
			t.Fatalf("line %d after reset: %p (mask %#x), first handed out %p", i, pl, pl.decoded, first[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		c.reset()
		for range first {
			c.newLine()
		}
	}); allocs != 0 {
		t.Fatalf("handing out %d lines after reset allocates %v times", n, allocs)
	}
	c.reset()
	for range first {
		c.newLine()
	}
	past := c.newLine()
	for i, pl := range first {
		if past == pl {
			t.Fatalf("line %d handed out twice between resets", i)
		}
	}
}

func TestDisablePredecodeBypassesCache(t *testing.T) {
	run := func(disable bool) (uint64, DebugCounters) {
		m := newTestMachine(t, uarch.Zen2())
		m.DisablePredecode = disable
		installCode(t, m, loopProgram(0x400000, 50))
		if res := m.RunAt(0x400000, 10000); res.Reason != StopHalt {
			t.Fatalf("run(disable=%v): %v", disable, res)
		}
		return m.Regs[isa.RAX], m.Debug
	}
	raxOn, _ := run(false)
	raxOff, dbg := run(true)
	if raxOn != raxOff {
		t.Fatalf("architectural result differs: %d vs %d", raxOn, raxOff)
	}
	if dbg.PredecodeHits != 0 || dbg.PredecodeMisses != 0 {
		t.Fatalf("DisablePredecode still touched the cache: hits=%d misses=%d",
			dbg.PredecodeHits, dbg.PredecodeMisses)
	}
}

// TestBindContext pins what a machine reads from its run's context: a
// WithReferenceFetch mark selects the reference fetch path, and once the
// context is done Run retires nothing and reports the context's error
// through Expect. An unbound machine is unaffected by both.
func TestBindContext(t *testing.T) {
	ctx, cancel := context.WithCancel(WithReferenceFetch(context.Background()))
	m := newTestMachine(t, uarch.Zen2())
	m.Bind(ctx)
	if !m.DisablePredecode {
		t.Fatal("WithReferenceFetch mark did not select the reference path")
	}
	installCode(t, m, loopProgram(0x400000, 50))
	if err := m.RunAt(0x400000, 10000).Expect(StopHalt); err != nil {
		t.Fatalf("live bound run: %v", err)
	}

	cancel()
	before := m.Perf.Instructions
	res := m.RunAt(0x400000, 10000)
	if res.Reason != StopCancelled || res.Steps != 0 || m.Perf.Instructions != before {
		t.Fatalf("cancelled run = %v after %d instructions, want an immediate stop",
			res, m.Perf.Instructions-before)
	}
	if err := res.Expect(StopHalt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Expect on a cancelled run = %v, want context.Canceled", err)
	}

	unbound := newTestMachine(t, uarch.Zen2())
	installCode(t, unbound, loopProgram(0x400000, 50))
	if err := unbound.RunAt(0x400000, 10000).Expect(StopHalt); err != nil || unbound.DisablePredecode {
		t.Fatalf("unbound machine: err=%v reference=%v", err, unbound.DisablePredecode)
	}
	if err := unbound.RunAt(0x400000, 2).Expect(StopHalt); err == nil || err.Error() != "limit after 2 steps" {
		t.Fatalf("Expect on a limit stop = %v", err)
	}
}

// TestPredecodeInvalidationOnRemap exercises the mapping-staleness defense:
// entries are keyed by physical address and the fetch memo snapshots the
// AddrSpace epoch, so remapping a VA to a different frame with different
// code must never serve the old frame's decodes.
func TestPredecodeInvalidationOnRemap(t *testing.T) {
	m := newTestMachine(t, uarch.Zen2())
	const va = 0x400000

	a1 := isa.NewAssembler(va)
	a1.MovImm(isa.RAX, 11)
	a1.Hlt()
	installCode(t, m, a1)
	if res := m.RunAt(va, 100); res.Reason != StopHalt || m.Regs[isa.RAX] != 11 {
		t.Fatalf("v1: %v rax=%d", res, m.Regs[isa.RAX])
	}

	// Remap the same VA to a fresh frame holding different code.
	m.UserAS.Unmap(va, mem.PageSize)
	a2 := isa.NewAssembler(va)
	a2.MovImm(isa.RAX, 22)
	a2.Hlt()
	installCode(t, m, a2)
	if res := m.RunAt(va, 100); res.Reason != StopHalt {
		t.Fatalf("v2: %v", res)
	}
	if m.Regs[isa.RAX] != 22 {
		t.Fatalf("after remap rax = %d, want 22 (stale fetch translation)", m.Regs[isa.RAX])
	}
}

// TestPredecodeAddressSpaceSwitch models a CR3 switch (the KPTI pattern):
// two address spaces map the same VA to different physical frames. The
// fetch memo keys on the AddrSpace identity, so swapping spaces between
// runs must re-translate.
func TestPredecodeAddressSpaceSwitch(t *testing.T) {
	m := newTestMachine(t, uarch.Zen2())
	const va = 0x400000

	a1 := isa.NewAssembler(va)
	a1.MovImm(isa.RAX, 33)
	a1.Hlt()
	installCode(t, m, a1)
	asA := m.UserAS

	asB := mem.NewAddrSpace(m.Phys)
	pa := allocPA(mem.PageSize)
	if err := asB.Map(va, pa, mem.PageSize, mem.PermRead|mem.PermExec|mem.PermUser); err != nil {
		t.Fatal(err)
	}
	a2 := isa.NewAssembler(va)
	a2.MovImm(isa.RAX, 44)
	a2.Hlt()
	if err := asB.WriteBytes(va, a2.MustBytes()); err != nil {
		t.Fatal(err)
	}

	if res := m.RunAt(va, 100); res.Reason != StopHalt || m.Regs[isa.RAX] != 33 {
		t.Fatalf("space A: %v rax=%d", res, m.Regs[isa.RAX])
	}
	m.UserAS = asB
	if res := m.RunAt(va, 100); res.Reason != StopHalt {
		t.Fatalf("space B: %v", res)
	}
	if m.Regs[isa.RAX] != 44 {
		t.Fatalf("after space switch rax = %d, want 44 (memo ignored AS identity)", m.Regs[isa.RAX])
	}
	m.UserAS = asA
	if res := m.RunAt(va, 100); res.Reason != StopHalt || m.Regs[isa.RAX] != 33 {
		t.Fatalf("back to space A: %v rax=%d", res, m.Regs[isa.RAX])
	}
}

// TestPredecodeCrossPageInstruction pins the slow-path fallback: an
// instruction whose 16-byte decode window straddles a page boundary is
// never cached and must still execute correctly.
func TestPredecodeCrossPageInstruction(t *testing.T) {
	m := newTestMachine(t, uarch.Zen2())
	const base = 0x400000
	a := isa.NewAssembler(base)
	// Pad so the 10-byte mov starts 4 bytes before the page boundary.
	a.NopSled(int(mem.PageSize - 4))
	a.MovImm(isa.RAX, 0x1234)
	a.Hlt()
	installCode(t, m, a)
	if res := m.RunAt(base, int(mem.PageSize)+100); res.Reason != StopHalt {
		t.Fatalf("run: %v", res)
	}
	if m.Regs[isa.RAX] != 0x1234 {
		t.Fatalf("rax = %#x", m.Regs[isa.RAX])
	}
}
