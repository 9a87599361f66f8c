package core

import (
	"context"
	"fmt"

	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/pipeline"
	"phantom/internal/uarch"
)

// BranchKind enumerates the five instruction kinds of the Table 1
// training/victim matrix.
type BranchKind uint8

// The five kinds, in the paper's column order.
const (
	KindJmpInd    BranchKind = iota // jmp*
	KindJmp                         // direct jmp
	KindJcc                         // conditional
	KindRet                         // return
	KindNonBranch                   // nop sled
	NumKinds
)

var kindNames = [NumKinds]string{"jmp*", "jmp", "jcc", "ret", "non-branch"}

func (k BranchKind) String() string { return kindNames[k] }

// Reach records which pipeline stages a mispredicted control flow was
// *observed* to enter, via the three channels of Figure 3: I-cache timing
// (IF), µop-cache performance counters (ID), D-cache timing (EX).
type Reach struct {
	IF, ID, EX bool
}

func (r Reach) String() string {
	switch {
	case r.EX:
		return "IF+ID+EX"
	case r.ID:
		return "IF+ID"
	case r.IF:
		return "IF"
	default:
		return "-"
	}
}

// Any reports whether any stage was observed.
func (r Reach) Any() bool { return r.IF || r.ID || r.EX }

// comboLab holds the Figure 4 experiment layout for one training/victim
// pair: training source A, aliased victim B, signal gadget C (and its
// PC-relative shadow C′ for direct-branch training), probe buffers, and
// the return-site marker used when training with ret.
type comboLab struct {
	env  *userEnv
	prof *uarch.Profile

	aAddr  uint64 // T_A: training instruction
	bAddr  uint64 // T_B = T_A ^ aliasMask: victim instruction
	nAddr  uint64 // T_N: non-aliasing training source (negative control)
	cAddr  uint64 // C: absolute signal gadget
	cPrime uint64 // C′ = B + (C - A)
	vTgt   uint64 // architectural victim branch target (hlt)
	hTgt   uint64 // architectural return target for ret victims
	mRet   uint64 // RSB top during the victim run (ret-training site)
	stub   uint64 // victim entry stub establishing the RSB state

	probe1 uint64 // D-side signal of the C/C′/M gadgets
	probe2 uint64 // D-side signal of straight-line (sequential) paths
	stack  uint64

	probe1PA, probe2PA     uint64
	cPA, cPrimePA, mRetPA  uint64
	trainKind, victimKind  BranchKind
	victimEntry            uint64
	victimTakenConditional bool
}

// Layout constants for the user-space experiments.
const (
	labABase   = uint64(0x5000000000) + 0x6a0
	labCOffset = uint64(0x40000) + 0x3a0 // C sits at page offset 0x3a0
	labProbe1  = uint64(0x5100000000)
	labProbe2  = uint64(0x5100100000)
	labStack   = uint64(0x5100200000)
)

// buildComboLab lays out one cell of the matrix on m, which must be in
// the state pipeline.New gives.
func buildComboLab(ctx context.Context, m *pipeline.Machine, train, victim BranchKind) (*comboLab, error) {
	env := newUserEnv(ctx, m)
	p := m.Prof
	maskVal, ok := btb.SamePrivAliasMask(m.BTB.Scheme())
	if !ok {
		return nil, fmt.Errorf("core: no same-privilege alias mask for %s", p)
	}

	lab := &comboLab{
		env: env, prof: p,
		aAddr:      labABase,
		bAddr:      labABase ^ maskVal,
		nAddr:      labABase ^ 0x100000, // flips an index bit on every scheme
		probe1:     labProbe1,
		probe2:     labProbe2,
		stack:      labStack,
		trainKind:  train,
		victimKind: victim,
	}
	lab.cAddr = (lab.aAddr &^ 0xfff) + labCOffset
	lab.cPrime = lab.bAddr + (lab.cAddr - lab.aAddr)
	lab.vTgt = lab.bAddr + 0x10000
	lab.hTgt = lab.bAddr + 0x11000

	if env.m.BTB.Scheme().Collides(lab.nAddr, false, lab.bAddr, false) {
		return nil, fmt.Errorf("core: negative-control address aliases the victim")
	}

	// Training snippet A.
	ta := isa.NewAssembler(lab.aAddr)
	switch train {
	case KindJmpInd:
		ta.JmpReg(isa.RDI)
	case KindJmp:
		ta.JmpTo(lab.cAddr)
	case KindJcc:
		ta.JccTo(isa.CondZ, lab.cAddr)
	case KindRet:
		ta.Ret()
	case KindNonBranch:
		ta.NopSled(16)
		ta.Hlt()
	}
	ta.Int3()
	if err := env.mapAsm(ta); err != nil {
		return nil, err
	}
	// Negative-control training source: same shape at a non-aliasing
	// address.
	na := isa.NewAssembler(lab.nAddr)
	switch train {
	case KindJmpInd:
		na.JmpReg(isa.RDI)
	case KindJmp:
		na.JmpTo(lab.cAddr)
	case KindJcc:
		na.JccTo(isa.CondZ, lab.cAddr)
	case KindRet:
		na.Ret()
	case KindNonBranch:
		na.NopSled(16)
		na.Hlt()
	}
	na.Int3()
	if err := env.mapAsm(na); err != nil {
		return nil, err
	}

	// Victim snippet B.
	vb := isa.NewAssembler(lab.bAddr)
	switch victim {
	case KindJmpInd:
		vb.JmpReg(isa.RSI)
	case KindJmp:
		vb.JmpTo(lab.vTgt)
	case KindJcc:
		vb.JccTo(isa.CondZ, lab.vTgt)
		// Sequential path after the conditional: the straight-line signal
		// load (observable only if the fall-through runs transiently).
		vb.Load(isa.RBX, isa.R10, 0)
		vb.Hlt()
	case KindRet:
		vb.Ret()
		// Straight-line bytes after the return (Spectre-SLS signal).
		vb.Load(isa.RBX, isa.R10, 0)
		vb.Hlt()
	case KindNonBranch:
		vb.NopSled(16)
		vb.Hlt()
	}
	vb.Int3()
	if err := env.mapAsm(vb); err != nil {
		return nil, err
	}

	// Signal gadget C and its PC-relative shadow C′: one load + halt.
	gadget := func(base uint64) *isa.Assembler {
		g := isa.NewAssembler(base)
		g.Load(isa.RAX, isa.R8, 0)
		g.Hlt()
		return g
	}
	if err := env.mapAsm(gadget(lab.cAddr)); err != nil {
		return nil, err
	}
	if lab.cPrime != lab.cAddr {
		if err := env.mapAsm(gadget(lab.cPrime)); err != nil {
			return nil, err
		}
	}

	// Architectural victim targets.
	vt := isa.NewAssembler(lab.vTgt)
	vt.Hlt()
	if err := env.mapAsm(vt); err != nil {
		return nil, err
	}
	ht := isa.NewAssembler(lab.hTgt)
	ht.Hlt()
	if err := env.mapAsm(ht); err != nil {
		return nil, err
	}

	// Victim entry stub: for ret-training cells the frontend steers to
	// the RSB top, so the victim runs behind a call whose return site M
	// is the observation point ("the return target will not be to C, but
	// to the most recent call site"). M is aligned to its own cache line.
	stubBase := lab.bAddr + 0x20000
	sa := isa.NewAssembler(stubBase)
	sa.Org((sa.PC()+5+63)&^63 - 5) // place call so its return site is line-aligned
	sa.Label("stub_entry")
	sa.Call("f")
	sa.Label("mret")
	sa.Load(isa.RAX, isa.R8, 0)
	sa.Hlt()
	sa.Align(64)
	sa.Label("f")
	sa.JmpTo(lab.bAddr)
	if err := env.mapAsm(sa); err != nil {
		return nil, err
	}
	lab.stub = sa.MustAddr("stub_entry")
	lab.mRet = sa.MustAddr("mret")

	if err := env.mapData(lab.probe1, 4096); err != nil {
		return nil, err
	}
	if err := env.mapData(lab.probe2, 4096); err != nil {
		return nil, err
	}
	if err := env.mapData(lab.stack, 8192); err != nil {
		return nil, err
	}

	var err error
	if lab.probe1PA, err = env.pa(lab.probe1); err != nil {
		return nil, err
	}
	if lab.probe2PA, err = env.pa(lab.probe2); err != nil {
		return nil, err
	}
	if lab.cPA, err = env.pa(lab.cAddr); err != nil {
		return nil, err
	}
	if lab.cPrimePA, err = env.pa(lab.cPrime); err != nil {
		return nil, err
	}
	if lab.mRetPA, err = env.pa(lab.mRet); err != nil {
		return nil, err
	}

	// The straight-line-speculation cells need the victim conditional to
	// be architecturally taken (so the fall-through is the wrong path).
	lab.victimTakenConditional = train == KindNonBranch && victim == KindJcc
	lab.victimEntry = lab.bAddr
	if train == KindRet {
		lab.victimEntry = lab.stub
	}
	return lab, nil
}

// signalSite returns the observation address for this cell: C for
// absolute-target training, C′ for PC-relative training, M (the RSB top)
// for ret training.
func (lab *comboLab) signalSite() (va, pa uint64, ok bool) {
	switch lab.trainKind {
	case KindJmpInd:
		return lab.cAddr, lab.cPA, true
	case KindJmp, KindJcc:
		return lab.cPrime, lab.cPrimePA, true
	case KindRet:
		return lab.mRet, lab.mRetPA, true
	}
	return 0, 0, false // non-branch training: no predicted target
}

// train performs one training pass (aliased when positive, the
// negative-control source otherwise).
func (lab *comboLab) train(positive bool) error {
	m := lab.env.m
	src := lab.aAddr
	if !positive {
		src = lab.nAddr
	}
	switch lab.trainKind {
	case KindNonBranch:
		return nil // "training" is the absence of a branch
	case KindJmpInd:
		m.Regs[isa.RDI] = lab.cAddr
	case KindJcc:
		m.ZF = true
	case KindRet:
		m.Regs[isa.RSP] = lab.stack + 4096
		m.Regs[isa.RSP] -= 8
		if err := m.UserAS.Write64(m.Regs[isa.RSP], lab.cAddr); err != nil {
			return err
		}
	}
	m.Regs[isa.R8] = lab.probe1
	return lab.env.run(src, 200)
}

// prime flushes the observation state: the signal site from I-cache and
// µop cache, the probe buffers from the D-side.
func (lab *comboLab) prime() {
	m := lab.env.m
	if _, pa, ok := lab.signalSite(); ok {
		m.Hier.FlushLine(pa)
	}
	if va, _, ok := lab.signalSite(); ok {
		m.Uop.Flush(va)
	}
	m.Hier.FlushLine(lab.probe1PA)
	m.Hier.FlushLine(lab.probe2PA)
}

// runVictim executes the victim once.
func (lab *comboLab) runVictim() error {
	m := lab.env.m
	m.Regs[isa.R8] = lab.probe1
	m.Regs[isa.R10] = lab.probe2
	m.Regs[isa.RSI] = lab.vTgt
	m.ZF = lab.victimTakenConditional
	if lab.victimKind == KindRet {
		m.Regs[isa.RSP] = lab.stack + 4096
		m.Regs[isa.RSP] -= 8
		if err := m.UserAS.Write64(m.Regs[isa.RSP], lab.hTgt); err != nil {
			return err
		}
	}
	return lab.env.run(lab.victimEntry, 400)
}

// observe probes the three channels after a victim run. It fails only
// when the machine's context is done.
func (lab *comboLab) observe() (Reach, error) {
	m := lab.env.m
	threshold := fetchLatencyThreshold(lab.prof)
	var r Reach

	site, _, hasSite := lab.signalSite()

	// IF: time an instruction fetch of the signal site (Figure 5A). For
	// ret training the site is the call's own return point, whose line
	// the frontend legitimately prefetches, so IF is inferred from ID.
	if hasSite && lab.trainKind != KindRet {
		if lat, ok := m.TimedFetch(site); ok && lat < threshold {
			r.IF = true
		}
	}

	// EX: time a load of the transiently-loaded probe line.
	if lat, ok := m.TimedLoad(lab.probe1); ok && lat < threshold {
		r.EX = true
	}
	// Straight-line cells (non-branch training) signal through the second
	// probe buffer. Other cells must not look at it: an unpredicted
	// return in the negative-control run straight-line-speculates too,
	// which would cancel the real probe1 signal in the subtraction.
	if lab.trainKind == KindNonBranch &&
		(lab.victimKind == KindRet || lab.victimTakenConditional) {
		if lat, ok := m.TimedLoad(lab.probe2); ok && lat < threshold {
			r.EX = true
		}
	}

	// ID: execute the signal site and watch the µop-cache hit counter
	// (the performance-counter channel of Figure 5B; Section 5.1 names
	// the per-µarch hardware events). How the run stops does not matter,
	// unless it was cancelled: then it observed nothing.
	if hasSite {
		before := m.Perf.UopCacheHits
		m.Regs[isa.R8] = lab.probe1
		if res := m.RunAt(site, 50); res.Reason == pipeline.StopCancelled {
			return Reach{}, res.Expect(pipeline.StopHalt)
		}
		if m.Perf.UopCacheHits > before {
			r.ID = true
		}
		if lab.trainKind == KindRet && r.ID {
			r.IF = true
		}
	}
	return r, nil
}

// resetTrial restores a clean microarchitectural slate between trials.
func (lab *comboLab) resetTrial() {
	m := lab.env.m
	m.IBPB()
	m.Hier.FlushAll()
	m.Uop.FlushAll()
}

// runTrial performs one full train→prime→victim→probe pass.
func (lab *comboLab) runTrial(positive bool) (Reach, error) {
	lab.resetTrial()
	for i := 0; i < 2; i++ {
		if err := lab.train(positive); err != nil {
			return Reach{}, err
		}
	}
	lab.prime()
	if err := lab.runVictim(); err != nil {
		return Reach{}, err
	}
	return lab.observe()
}

// runCombo measures how far the mispredicted control flow of one
// training/victim pair advances on profile p under the mitigation MSRs
// msr, using repeated trials with complementary negative testing ("only
// when we measure significantly more µop-cache misses compared to the
// negative test do we conclude that the mispredicted target advanced to
// ID" — Section 5.1; applied to all three channels here). It runs on m,
// which must be in the state pipeline.New gives.
func runCombo(ctx context.Context, m *pipeline.Machine, train, victim BranchKind, trials int, noise float64, msr uarch.MSRState) (Reach, error) {
	lab, err := buildComboLab(ctx, m, train, victim)
	if err != nil {
		return Reach{}, err
	}
	m.MSR = msr
	m.Noise.Level = noise

	// Training with non-branch means "no prediction exists"; there is no
	// aliasing to control for, so the negative test is skipped and the
	// raw majority decides.
	control := train != KindNonBranch

	var pos, neg [3]int
	for t := 0; t < trials; t++ {
		rp, err := lab.runTrial(true)
		if err != nil {
			return Reach{}, err
		}
		for i, b := range []bool{rp.IF, rp.ID, rp.EX} {
			if b {
				pos[i]++
			}
		}
		if !control {
			continue
		}
		rn, err := lab.runTrial(false)
		if err != nil {
			return Reach{}, err
		}
		for i, b := range []bool{rn.IF, rn.ID, rn.EX} {
			if b {
				neg[i]++
			}
		}
	}
	sig := func(i int) bool { return pos[i]-neg[i] > trials/2 }
	return Reach{IF: sig(0), ID: sig(1), EX: sig(2)}, nil
}
