// Package search is the automated attack-variant search: a
// seed-deterministic differential fuzzer over the speculation model.
//
// The loop follows the generate/run/diff/minimize shape of the
// TA-BP-Model random_search tooling, adapted to the Phantom setting:
// each generated program trains the BTB from one branch class and then
// runs an aliased victim block, once on the normal machine
// (mispredict-on) and once with pipeline.Machine.DisableSpeculation set
// (mispredict-off). Everything the two legs disagree on — architectural
// state, decoder-visible trace events, predictor replacement state — is
// by construction an effect of transient execution, and the classifier
// buckets it into Canella-style categories (classify.go). Anomalous
// programs shrink to locally-minimal reproducers (minimize.go) that
// land as byte-exact regression fixtures under testdata/search/.
//
// Determinism contract: every function here is a pure function of the
// program (and for Run, of Options.Seed and Options.Budget). No wall
// clock, no global rand, no map-order dependence — the package is in
// phantom-vet's determinism scope, and TestSearchDeterministicAcrossJobs
// pins byte-identical findings at any -jobs count.
package search

import (
	"fmt"
	"strings"

	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
	"phantom/internal/uarch"
)

// Train kinds, named as in the Table 1 harness (core.BranchKind).
const (
	TrainJmpInd    = "jmp*"
	TrainJmp       = "jmp"
	TrainJcc       = "jcc"
	TrainCallInd   = "call*"
	TrainRet       = "ret"
	TrainNonBranch = "non-branch"
)

// trainKinds lists every kind the generator draws from, in a fixed
// order (program seeds index into it).
var trainKinds = []string{TrainJmpInd, TrainJmp, TrainJcc, TrainCallInd, TrainRet, TrainNonBranch}

// Program is one generated differential test case. It is the entire
// input of a run: JSON-serialized into fixtures, replayed byte-exactly
// by TestSearchCorpusParity. Victim and Gadget hold textual assembly
// statements (isa.Assemble syntax); the harness appends the shared
// "end" label, a halt, and a trap fence to each block, so generated
// branches may target "end" and nothing else.
type Program struct {
	Arch   string   `json:"arch"`
	Seed   int64    `json:"seed"`  // generator seed (provenance; not re-drawn on replay)
	Train  string   `json:"train"` // trainer branch class at the aliased source
	Rounds int      `json:"rounds"`
	Victim []string `json:"victim"`
	Gadget []string `json:"gadget"`
}

// Layout of the differential lab, mirroring the Table 1 comboLab: the
// trainer branch at T, the victim block at T ^ SamePrivAliasMask (so
// the BTB serves the trainer's prediction for the victim's fetch), and
// the gadget block at the trainer's architectural target.
const (
	labTrainBase = uint64(0x5200000000) + 0x6a0
	labGadgetOff = uint64(0x40000) + 0x3a0
	labData      = uint64(0x5300000000)
	labStack     = uint64(0x5300100000)
	dataBytes    = 2 * mem.PageSize
	stackBytes   = mem.PageSize

	trainLimit  = 300
	victimLimit = 600

	// labPhysBytes is the physical memory size of every lab machine.
	labPhysBytes = 1 << 30
)

// rig is the machine a sequence of legs shares: each leg resets it
// instead of building a new one, and the arch's alias mask is solved
// once per machine. The zero rig is ready to use; a program of another
// arch replaces the machine.
type rig struct {
	m    *pipeline.Machine
	arch string
	mask uint64 // btb.SamePrivAliasMask of the machine's scheme
}

// machine returns the rig's machine in the state pipeline.New gives a
// fresh one for p, and its same-privilege alias mask.
func (r *rig) machine(p *Program) (*pipeline.Machine, uint64, error) {
	if r.m != nil && r.arch == p.Arch {
		r.m.Reset(p.Seed)
		return r.m, r.mask, nil
	}
	prof, err := uarch.ByName(p.Arch)
	if err != nil {
		return nil, 0, err
	}
	m := pipeline.New(prof, labPhysBytes, p.Seed)
	mask, ok := btb.SamePrivAliasMask(m.BTB.Scheme())
	if !ok {
		return nil, 0, fmt.Errorf("search: no same-privilege alias mask for %s", p.Arch)
	}
	*r = rig{m: m, arch: p.Arch, mask: mask}
	return m, mask, nil
}

// lab is one assembled instance of a Program on one machine.
type lab struct {
	m      *pipeline.Machine
	nextPA uint64

	trainVA  uint64
	victimVA uint64
	gadgetVA uint64

	dataPAs []uint64 // page-aligned PAs backing data+stack, for digesting
}

// blockSource renders a generated block: its statements, then the
// shared branch-target label, a halt, and an int3 fence so a decoder
// walking past the end stops.
func blockSource(stmts []string) string {
	var b strings.Builder
	for _, s := range stmts {
		b.WriteString(s)
		b.WriteString("\n")
	}
	b.WriteString("end: hlt\nint3\n")
	return b.String()
}

// buildLab assembles and maps the program on r's machine, reset for p.
func buildLab(r *rig, p *Program) (*lab, error) {
	m, mask, err := r.machine(p)
	if err != nil {
		return nil, err
	}
	m.Noise.Level = 0
	l := &lab{
		m: m, nextPA: 0x1000000,
		trainVA:  labTrainBase,
		victimVA: labTrainBase ^ mask,
		gadgetVA: (labTrainBase &^ 0xfff) + labGadgetOff,
	}

	// Trainer snippet: one branch of the chosen class, aimed at the
	// gadget block.
	ta := isa.NewAssembler(l.trainVA)
	switch p.Train {
	case TrainJmpInd:
		ta.JmpReg(isa.RDI)
	case TrainJmp:
		ta.JmpTo(l.gadgetVA)
	case TrainJcc:
		ta.JccTo(isa.CondZ, l.gadgetVA)
	case TrainCallInd:
		ta.CallReg(isa.RDI)
	case TrainRet:
		ta.Ret()
	case TrainNonBranch:
		ta.NopSled(16)
		ta.Hlt()
	default:
		return nil, fmt.Errorf("search: unknown train kind %q", p.Train)
	}
	ta.Int3()
	if err := l.mapAsm(ta); err != nil {
		return nil, err
	}

	// Victim and gadget blocks from the generated statements.
	if err := l.mapSource(blockSource(p.Victim), l.victimVA); err != nil {
		return nil, fmt.Errorf("search: victim block: %w", err)
	}
	if err := l.mapSource(blockSource(p.Gadget), l.gadgetVA); err != nil {
		return nil, fmt.Errorf("search: gadget block: %w", err)
	}

	if err := l.mapData(labData, dataBytes); err != nil {
		return nil, err
	}
	if err := l.mapData(labStack, stackBytes); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *lab) allocPA(n uint64) uint64 {
	pa := l.nextPA
	l.nextPA += (n + mem.PageSize - 1) &^ (mem.PageSize - 1)
	return pa
}

func (l *lab) mapBlob(va uint64, blob []byte, perm mem.Perm) error {
	base := va &^ (mem.PageSize - 1)
	end := (va + uint64(len(blob)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if err := l.m.UserAS.Map(base, l.allocPA(end-base), end-base, perm); err != nil {
		return err
	}
	return l.m.UserAS.WriteBytes(va, blob)
}

func (l *lab) mapAsm(a *isa.Assembler) error {
	blob, err := a.Bytes()
	if err != nil {
		return err
	}
	return l.mapBlob(a.Base(), blob, mem.PermRead|mem.PermExec|mem.PermUser)
}

func (l *lab) mapSource(src string, va uint64) error {
	blob, _, err := isa.Assemble(src, va)
	if err != nil {
		return err
	}
	return l.mapBlob(va, blob, mem.PermRead|mem.PermExec|mem.PermUser)
}

func (l *lab) mapData(va, size uint64) error {
	pa := l.allocPA(size)
	if err := l.m.UserAS.Map(va, pa, size, mem.PermRead|mem.PermWrite|mem.PermUser); err != nil {
		return err
	}
	for off := uint64(0); off < size; off += mem.PageSize {
		l.dataPAs = append(l.dataPAs, pa+off)
	}
	return nil
}

// initRegs establishes the fixed register file both legs and every run
// start from: data pointers in RSI/R8, the trainer's indirect target in
// RDI, a live stack, everything else zero.
func (l *lab) initRegs() {
	m := l.m
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.Regs[isa.RSI] = labData
	m.Regs[isa.R8] = labData + mem.PageSize
	m.Regs[isa.RDI] = l.gadgetVA
	m.Regs[isa.RSP] = labStack + stackBytes/2
	m.ZF, m.CF = false, false
}

// trainOnce performs one training pass: run the trainer so its branch
// retires and installs a BTB entry (the machine self-trains, as in the
// Table 1 harness). Non-branch training is the absence of a branch.
func (l *lab) trainOnce(p *Program) error {
	if p.Train == TrainNonBranch {
		return nil
	}
	m := l.m
	l.initRegs()
	switch p.Train {
	case TrainJcc:
		m.ZF = true
	case TrainRet:
		m.Regs[isa.RSP] -= 8
		if err := m.UserAS.Write64(m.Regs[isa.RSP], l.gadgetVA); err != nil {
			return err
		}
	}
	// Any stop reason is acceptable: the trainer branch retires on its
	// first step; what the generated gadget does afterwards (halt,
	// fault, trap) is part of the program under test.
	m.RunAt(l.trainVA, trainLimit)
	return nil
}

// runVictim executes the victim block once and returns its RunResult.
func (l *lab) runVictim() pipeline.RunResult {
	l.initRegs()
	return l.m.RunAt(l.victimVA, victimLimit)
}
