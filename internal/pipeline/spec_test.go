package pipeline

import (
	"testing"

	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

// These tests exercise the speculation-episode engine directly: barriers,
// nesting, budgets, store suppression, and value forwarding.

func TestLfenceStopsWrongPath(t *testing.T) {
	// A serializing instruction in the wrong path must stop the episode
	// before a later load executes (the lfence mitigation of Section 2.4).
	m := newTestMachine(t, uarch.Zen2())
	maskVal, _ := btb.SamePrivAliasMask(m.BTB.Scheme())
	aAddr := uint64(0x400000) + 0x6a0
	bAddr := aAddr ^ maskVal
	cAddr := uint64(0x7f0000) + 0x3c0
	probeVA := uint64(0x600000)

	ta := isa.NewAssembler(aAddr)
	ta.JmpReg(isa.RDI)
	installCode(t, m, ta)
	vb := isa.NewAssembler(bAddr)
	vb.NopSled(16)
	vb.Hlt()
	installCode(t, m, vb)
	// C: lfence *before* the load.
	ca := isa.NewAssembler(cAddr)
	ca.Lfence()
	ca.Load(isa.RAX, isa.R8, 0)
	ca.Hlt()
	installCode(t, m, ca)
	installData(t, m, probeVA, mem.PageSize)

	for i := 0; i < 3; i++ {
		m.Regs[isa.RDI] = cAddr
		m.Regs[isa.R8] = probeVA
		if res := m.RunAt(aAddr, 100); res.Reason != StopHalt {
			t.Fatalf("training: %v", res)
		}
	}
	probePA := paOf(t, m, probeVA)
	m.Hier.FlushLine(probePA)
	m.Regs[isa.R8] = probeVA
	if res := m.RunAt(bAddr, 100); res.Reason != StopHalt {
		t.Fatalf("victim: %v", res)
	}
	if m.Hier.L1D.Present(probePA) || m.Hier.L2.Present(probePA) {
		t.Fatal("load behind lfence executed transiently")
	}
	// Fetch still happened (lfence does not undo IF).
	cPA := paOf(t, m, cAddr)
	if !m.Hier.L1I.Present(cPA) {
		t.Fatal("no transient fetch of the lfence gadget")
	}
}

func TestWrongPathStoresAreSuppressed(t *testing.T) {
	// Wrong-path stores sit in the store buffer and never become
	// architecturally or microarchitecturally visible in this model.
	m := newTestMachine(t, uarch.Zen1())
	maskVal, _ := btb.SamePrivAliasMask(m.BTB.Scheme())
	aAddr := uint64(0x400000) + 0x6a0
	bAddr := aAddr ^ maskVal
	cAddr := uint64(0x7f0000) + 0x3c0
	dataVA := uint64(0x600000)

	ta := isa.NewAssembler(aAddr)
	ta.JmpReg(isa.RDI)
	installCode(t, m, ta)
	vb := isa.NewAssembler(bAddr)
	vb.NopSled(16)
	vb.Hlt()
	installCode(t, m, vb)
	// C: a store.
	ca := isa.NewAssembler(cAddr)
	ca.Store(isa.R8, 0, isa.R9)
	ca.Hlt()
	installCode(t, m, ca)
	installData(t, m, dataVA, mem.PageSize)

	if err := m.UserAS.Write64(dataVA, 0x1111); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Regs[isa.RDI] = cAddr
		m.Regs[isa.R8] = dataVA
		m.Regs[isa.R9] = 0x2222
		if res := m.RunAt(aAddr, 100); res.Reason != StopHalt {
			t.Fatalf("training: %v", res)
		}
	}
	// Training executed the store architecturally; reset the value.
	if err := m.UserAS.Write64(dataVA, 0x1111); err != nil {
		t.Fatal(err)
	}
	m.Regs[isa.R9] = 0x3333
	if res := m.RunAt(bAddr, 100); res.Reason != StopHalt {
		t.Fatalf("victim: %v", res)
	}
	v, err := m.UserAS.Read64(dataVA)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1111 {
		t.Fatalf("wrong-path store committed: %#x", v)
	}
}

func TestTransientLoadValueForwards(t *testing.T) {
	// A wrong-path load's value must feed later wrong-path address
	// computation — the dependency chain P3 and the MDS exploit rely on.
	m := newTestMachine(t, uarch.Zen1())
	maskVal, _ := btb.SamePrivAliasMask(m.BTB.Scheme())
	aAddr := uint64(0x400000) + 0x6a0
	bAddr := aAddr ^ maskVal
	cAddr := uint64(0x7f0000) + 0x3c0
	ptrVA := uint64(0x600000)    // holds a pointer value
	reloadVA := uint64(0x610000) // reload buffer

	ta := isa.NewAssembler(aAddr)
	ta.JmpReg(isa.RDI)
	installCode(t, m, ta)
	vb := isa.NewAssembler(bAddr)
	vb.NopSled(16)
	vb.Hlt()
	installCode(t, m, vb)
	// C: load a value and dereference-derived address: rax = [r8];
	// rbx = [rax].
	ca := isa.NewAssembler(cAddr)
	ca.Load(isa.RAX, isa.R8, 0)
	ca.Load(isa.RBX, isa.RAX, 0)
	ca.Hlt()
	installCode(t, m, ca)
	installData(t, m, ptrVA, mem.PageSize)
	installData(t, m, reloadVA, mem.PageSize)

	// The pointer chain: [ptrVA] = reloadVA + 0x240.
	if err := m.UserAS.Write64(ptrVA, reloadVA+0x240); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		m.Regs[isa.RDI] = cAddr
		m.Regs[isa.R8] = ptrVA
		if res := m.RunAt(aAddr, 100); res.Reason != StopHalt {
			t.Fatalf("training: %v", res)
		}
	}
	secretPA := paOf(t, m, reloadVA+0x240)
	m.Hier.FlushLine(secretPA)
	m.Regs[isa.R8] = ptrVA
	if res := m.RunAt(bAddr, 100); res.Reason != StopHalt {
		t.Fatalf("victim: %v", res)
	}
	if !m.Hier.L1D.Present(secretPA) && !m.Hier.L2.Present(secretPA) {
		t.Fatal("dependent transient load did not execute (no value forwarding)")
	}
}

func TestPhantomWindowBoundsLoads(t *testing.T) {
	// A Zen 2 Phantom window dispatches 6 µops: a gadget with many loads
	// must only complete the ones within the budget.
	m := newTestMachine(t, uarch.Zen2())
	maskVal, _ := btb.SamePrivAliasMask(m.BTB.Scheme())
	aAddr := uint64(0x400000) + 0x6a0
	bAddr := aAddr ^ maskVal
	cAddr := uint64(0x7f0000) + 0x3c0
	probeVA := uint64(0x600000)

	ta := isa.NewAssembler(aAddr)
	ta.JmpReg(isa.RDI)
	installCode(t, m, ta)
	vb := isa.NewAssembler(bAddr)
	vb.NopSled(16)
	vb.Hlt()
	installCode(t, m, vb)
	// C: 10 loads from distinct lines.
	ca := isa.NewAssembler(cAddr)
	for i := 0; i < 10; i++ {
		ca.Load(isa.RAX, isa.R8, int32(i*64))
	}
	ca.Hlt()
	installCode(t, m, ca)
	installData(t, m, probeVA, mem.PageSize)

	for i := 0; i < 3; i++ {
		m.Regs[isa.RDI] = cAddr
		m.Regs[isa.R8] = probeVA
		if res := m.RunAt(aAddr, 200); res.Reason != StopHalt {
			t.Fatalf("training: %v", res)
		}
	}
	for i := 0; i < 10; i++ {
		m.Hier.FlushLine(paOf(t, m, probeVA+uint64(i*64)))
	}
	m.Regs[isa.R8] = probeVA
	if res := m.RunAt(bAddr, 200); res.Reason != StopHalt {
		t.Fatalf("victim: %v", res)
	}
	loaded := 0
	for i := 0; i < 10; i++ {
		if m.Hier.L1D.Present(paOf(t, m, probeVA+uint64(i*64))) {
			loaded++
		}
	}
	want := uarch.Zen2().PhantomWindow.ExecUops
	if loaded != want {
		t.Fatalf("wrong path completed %d loads, want %d (window budget)", loaded, want)
	}
}

func TestKPTICostsButDoesNotBlock(t *testing.T) {
	// Phantom works with KPTI enabled (unlike the prefetch attacks of
	// [40]); KPTI only adds transition cost and TLB flushes.
	mkMachine := func(kpti bool) *Machine {
		m := newTestMachine(t, uarch.Zen2())
		m.KPTI = kpti
		kEntry := uint64(0xffffffff81000000)
		ka := isa.NewAssembler(kEntry)
		ka.NopSled(8)
		ka.Syscall()
		installBlob(t, m, kEntry, ka.MustBytes(), mem.PermRead|mem.PermExec)
		m.SyscallEntry = kEntry
		ua := isa.NewAssembler(0x400000)
		ua.Syscall()
		ua.Hlt()
		installCode(t, m, ua)
		return m
	}
	mOff := mkMachine(false)
	resOff := mOff.RunAt(0x400000, 100)
	mOn := mkMachine(true)
	start := mOn.Cycle
	resOn := mOn.RunAt(0x400000, 100)
	if resOff.Reason != StopHalt || resOn.Reason != StopHalt {
		t.Fatalf("syscalls failed: %v / %v", resOff, resOn)
	}
	if mOn.Cycle-start <= mOff.Cycle {
		t.Fatal("KPTI did not cost anything")
	}
	if !mOn.ITLB.Lookup(0x400000) == false { // first lookup after flush misses
		t.Log("TLB state after KPTI exercised")
	}
}

func TestNestedPhantomInsideSpectreWindow(t *testing.T) {
	// The Section 7.4 nesting in isolation: a mispredicted jcc opens a
	// backend window; inside it a direct call carries an aliased jmp*
	// prediction that redirects the wrong path to a disclosure gadget.
	m := newTestMachine(t, uarch.Zen2())
	maskVal, _ := btb.SamePrivAliasMask(m.BTB.Scheme())

	code := isa.NewAssembler(0x400000)
	code.MovImm(isa.RSP, 0x700000+0x800)
	code.AluImm(isa.AluCmp, isa.RCX, 10) // CF = rcx < 10
	code.Jcc(isa.CondB, "body")
	code.Hlt()
	code.Label("body")
	code.Load(isa.R9, isa.R10, 0) // wrong-path data load
	code.Label("callsite")
	code.Call("parse")
	code.Hlt()
	code.Label("parse")
	code.Ret()
	installCode(t, m, code)
	installData(t, m, 0x700000, mem.PageSize)

	callSite := code.MustAddr("callsite")
	// Disclosure gadget: uses the r9 value loaded in the outer window.
	gAddr := uint64(0x7f0000) + 0x440
	ga := isa.NewAssembler(gAddr)
	ga.AluImm(isa.AluAnd, isa.R9, 0xff)
	ga.Shl(isa.R9, 6)
	ga.AddReg(isa.R9, isa.R14)
	ga.Load(isa.R8, isa.R9, 0)
	ga.Hlt()
	installCode(t, m, ga)

	dataVA := uint64(0x600000)
	reloadVA := uint64(0x610000)
	installData(t, m, dataVA, mem.PageSize)
	installData(t, m, reloadVA, mem.PageSize)
	if err := m.UserAS.Write64(dataVA, 0x37); err != nil { // the "secret"
		t.Fatal(err)
	}

	// Train the conditional taken.
	for i := 0; i < 4; i++ {
		m.Regs[isa.RCX] = 1
		m.Regs[isa.R10] = dataVA
		m.Regs[isa.R14] = reloadVA
		if res := m.RunAt(0x400000, 100); res.Reason != StopHalt {
			t.Fatalf("training: %v", res)
		}
	}
	// Plant the inner phantom prediction via an aliased user branch.
	trainer := isa.NewAssembler(callSite ^ maskVal)
	trainer.JmpReg(isa.RDI)
	installCode(t, m, trainer)
	m.Regs[isa.RDI] = gAddr
	if res := m.RunAt(callSite^maskVal, 50); res.Reason != StopHalt &&
		res.Reason != StopLimit && res.Reason != StopTrap {
		t.Fatalf("inner training: %v", res)
	}

	// Fire: condition false, branch predicted taken, wrong path loads the
	// secret and the nested phantom leaks it into the reload buffer.
	secretLine := paOf(t, m, reloadVA+0x37<<6)
	m.Hier.FlushLine(secretLine)
	m.Regs[isa.RCX] = 50
	m.Regs[isa.R10] = dataVA
	m.Regs[isa.R14] = reloadVA
	if res := m.RunAt(0x400000, 100); res.Reason != StopHalt {
		t.Fatalf("victim: %v", res)
	}
	if !m.Hier.L1D.Present(secretLine) && !m.Hier.L2.Present(secretLine) {
		t.Fatal("nested phantom did not leak the secret-indexed line")
	}
	if m.Debug.BackendResteers == 0 {
		t.Fatal("no backend window opened")
	}
}

func TestPerfCountersDelta(t *testing.T) {
	m := newTestMachine(t, uarch.Zen2())
	a := isa.NewAssembler(0x400000)
	a.NopSled(32)
	a.Hlt()
	installCode(t, m, a)
	before := m.Perf
	m.RunAt(0x400000, 100)
	d := m.Perf.Delta(before)
	if d.Instructions == 0 || d.Cycles == 0 {
		t.Fatalf("delta: %v", d)
	}
	if d.String() == "" {
		t.Fatal("counter stringer broken")
	}
}

func TestIntelVictimJmpIndQuirks(t *testing.T) {
	// IndirectVictimNone vs FetchOnly, measured at the pipeline level.
	for _, tc := range []struct {
		prof      *uarch.Profile
		wantFetch bool
	}{
		{uarch.Intel9(), false},
		{uarch.Intel12(), true},
	} {
		m := newTestMachine(t, tc.prof)
		maskVal, ok := btb.SamePrivAliasMask(m.BTB.Scheme())
		if !ok {
			t.Fatal("no mask")
		}
		aAddr := uint64(0x400000) + 0x6a0
		bAddr := aAddr ^ maskVal
		cAddr := uint64(0x7f0000) + 0x3c0

		// Direct-jmp training on a jmp* victim: an asymmetric (phantom)
		// pair, where the Intel quirk applies. The observation site is
		// C' = B + (C - A), since direct targets are served PC-relative.
		ta := isa.NewAssembler(aAddr)
		ta.JmpTo(cAddr)
		installCode(t, m, ta)
		vb := isa.NewAssembler(bAddr)
		vb.JmpReg(isa.RSI) // victim is an indirect branch
		installCode(t, m, vb)
		ca := isa.NewAssembler(cAddr)
		ca.NopSled(8)
		ca.Hlt()
		installCode(t, m, ca)
		cPrime := bAddr + (cAddr - aAddr)
		cp := isa.NewAssembler(cPrime)
		cp.NopSled(8)
		cp.Hlt()
		installCode(t, m, cp)
		vt := isa.NewAssembler(bAddr + 0x10000)
		vt.Hlt()
		installCode(t, m, vt)

		for i := 0; i < 3; i++ {
			if res := m.RunAt(aAddr, 100); res.Reason != StopHalt {
				t.Fatalf("training: %v", res)
			}
		}
		cPA := paOf(t, m, cPrime)
		cAddr = cPrime
		m.Hier.FlushLine(cPA)
		m.Uop.Flush(cAddr)
		m.Regs[isa.RSI] = bAddr + 0x10000
		if res := m.RunAt(bAddr, 100); res.Reason != StopHalt {
			t.Fatalf("victim: %v", res)
		}
		gotFetch := m.Hier.L1I.Present(cPA)
		if gotFetch != tc.wantFetch {
			t.Errorf("%s: fetch=%v want %v", tc.prof, gotFetch, tc.wantFetch)
		}
		if m.Uop.Present(cAddr) {
			t.Errorf("%s: jmp*-victim speculation decoded", tc.prof)
		}
	}
}

func TestWrongPathAddSetsCarry(t *testing.T) {
	// The wrong path computes flags as retirement does: an add that
	// wraps sets CF, so a transient jb after it steers to its target.
	// Train a jz taken, then run it not taken: its Spectre-PHT wrong path
	// executes the add with CF clear beforehand.
	m := newTestMachine(t, uarch.Zen2())
	farVA := uint64(0x7f0000)
	a := isa.NewAssembler(0x400000)
	a.CmpReg(isa.RDI, isa.RSI) // ZF = rdi == rsi, CF = rdi < rsi
	a.Jcc(isa.CondZ, "gadget")
	a.Hlt()
	a.Label("gadget")
	a.MovImm(isa.RAX, ^uint64(0))
	a.MovImm(isa.RBX, 1)
	a.AddReg(isa.RAX, isa.RBX) // wraps to 0: CF = 1
	a.JccTo(isa.CondB, farVA)
	a.Hlt()
	installCode(t, m, a)
	fa := isa.NewAssembler(farVA)
	fa.Hlt()
	installCode(t, m, fa)

	for i := 0; i < 3; i++ {
		m.Regs[isa.RDI], m.Regs[isa.RSI] = 0, 0
		if res := m.RunAt(0x400000, 100); res.Reason != StopHalt || m.RIP != farVA {
			t.Fatalf("training: %v at %#x, want a halt at far", res, m.RIP)
		}
	}
	farPA := paOf(t, m, farVA)
	m.Hier.FlushLine(farPA)
	m.Regs[isa.RDI], m.Regs[isa.RSI] = 1, 0 // ZF and CF clear
	if res := m.RunAt(0x400000, 100); res.Reason != StopHalt {
		t.Fatalf("victim: %v", res)
	}
	if !m.Hier.L1I.Present(farPA) {
		t.Fatal("the transient jb after a wrapping add did not steer to its target")
	}
}
