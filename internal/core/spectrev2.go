package core

import (
	"context"
	"fmt"

	"phantom/internal/isa"
	"phantom/internal/stats"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// This file implements the conventional-Spectre baseline the paper
// contrasts Phantom against: classic Spectre-V2 [34] (Table 1 cell a),
// where training and victim are both indirect branches and the
// misprediction resolves at *execute*, leaving a window "wide enough to
// queue up several secret-dependent memory loads". Phantom's whole point
// is that its windows are much shorter (frontend-resteered) yet still
// exploitable; having the baseline in the same harness lets tests and
// benchmarks compare the two regimes directly.

// SpectreV2Result reports a baseline Spectre-V2 leak run.
type SpectreV2Result struct {
	Profile  string
	Bytes    int
	Accuracy stats.Accuracy
	// WindowLoads is the number of dependent loads the wrong path
	// executed per attempt (two for the classic gadget: secret fetch +
	// reload-buffer encode), measured from ground truth for reporting.
	WindowLoads uint64
}

func (r *SpectreV2Result) String() string {
	return fmt.Sprintf("Spectre-V2 baseline on %s: %d bytes at %s (%d wrong-path loads/attempt)",
		r.Profile, r.Bytes, &r.Accuracy, r.WindowLoads)
}

// RunSpectreV2 runs a classic user-space Spectre-V2 attack on the given
// profile: a victim with an indirect call whose architectural target is a
// benign function; the attacker trains the BTB (same class, different
// target) toward a conventional two-load disclosure gadget, then recovers
// a secret byte per attempt with Flush+Reload. It works on every modeled
// part — including Zen 3/4 and Intel, whose Phantom windows cannot
// execute — because same-class indirect mispredictions resolve at the
// backend.
func RunSpectreV2(ctx context.Context, p *uarch.Profile, seed int64, nbytes int) (*SpectreV2Result, error) {
	telemetry.CountExperiment("spectre_v2")
	m := userMachine(nil, p, seed)
	env := newUserEnv(ctx, m)
	if nbytes <= 0 {
		nbytes = 16
	}

	const (
		victimEntry = uint64(0x5400000000)
		benignFn    = uint64(0x5400010000)
		gadgetAddr  = uint64(0x5400020000)
		secretVA    = uint64(0x5500000000)
		reloadVA    = uint64(0x5500100000)
		stackVA     = uint64(0x5500200000)
	)

	// Victim: an indirect call through RDI to a benign function, like a
	// C++ virtual dispatch. The secret pointer sits in R9 — register
	// state the attacker cannot read architecturally.
	va := isa.NewAssembler(victimEntry)
	va.MovImm(isa.RSP, stackVA+0x800)
	va.Label("vcall")
	va.CallReg(isa.RDI)
	va.Hlt()
	if err := env.mapAsm(va); err != nil {
		return nil, err
	}

	bf := isa.NewAssembler(benignFn)
	bf.Ret()
	if err := env.mapAsm(bf); err != nil {
		return nil, err
	}

	// Conventional disclosure gadget: TWO dependent loads — fetch the
	// secret byte, then encode it in the reload buffer. This is exactly
	// what an MDS gadget (Listing 4) lacks.
	ga := isa.NewAssembler(gadgetAddr)
	ga.Load(isa.RAX, isa.R9, 0)          // secret value
	ga.AluImm(isa.AluAnd, isa.RAX, 0xff) // one byte
	ga.Shl(isa.RAX, 6)                   // cache-line aligned (bits [13:6])
	ga.AddReg(isa.RAX, isa.R10)          // + reload buffer
	ga.Load(isa.RBX, isa.RAX, 0)         // secret-dependent load
	ga.Hlt()
	if err := env.mapAsm(ga); err != nil {
		return nil, err
	}

	if err := env.mapData(secretVA, 4096); err != nil {
		return nil, err
	}
	if err := env.mapData(reloadVA, 256*64); err != nil {
		return nil, err
	}
	if err := env.mapData(stackVA, 8192); err != nil {
		return nil, err
	}

	// Plant the secret.
	secret := make([]byte, nbytes)
	rng := m.RNG()
	rng.Read(secret)
	for i, b := range secret {
		pa, err := env.pa(secretVA + uint64(i))
		if err != nil {
			return nil, err
		}
		m.Phys.Write8(pa, b)
	}

	_ = va.MustAddr("vcall") // the indirect call site; training targets it implicitly

	res := &SpectreV2Result{Profile: p.String(), Bytes: nbytes}
	rb := reloadBuffer{m: m, va: reloadVA}
	loadsBefore := m.Debug.TransientLoads

	for i := 0; i < nbytes; i++ {
		// Train: run the victim with RDI = gadget a few times, so the BTB
		// learns the indirect call's target as the gadget.
		for t := 0; t < 3; t++ {
			m.Regs[isa.RDI] = gadgetAddr
			m.Regs[isa.R9] = secretVA // harmless during training
			m.Regs[isa.R10] = reloadVA
			if err := env.run(victimEntry, 100); err != nil {
				return nil, err
			}
		}
		rb.flush()
		// Victim run: architectural target is benign, but the trained
		// prediction sends the wrong path into the gadget with the
		// secret pointer in R9.
		m.Regs[isa.RDI] = benignFn
		m.Regs[isa.R9] = secretVA + uint64(i)
		m.Regs[isa.R10] = reloadVA
		if err := env.run(victimEntry, 100); err != nil {
			return nil, err
		}
		// Reload: no signal reads as 0.
		got, _ := rb.scan()
		res.Accuracy.Add(got == secret[i])

		// Untrain so the next iteration's training starts clean.
		m.IBPB()
	}
	attempts := uint64(nbytes)
	res.WindowLoads = (m.Debug.TransientLoads - loadsBefore) / attempts
	return res, nil
}
