package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"phantom/internal/kernel"
	"phantom/internal/pipeline"
	"phantom/internal/stats"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// MitigationReport collects the Section 6.3 / Section 8 evaluation for one
// microarchitecture.
type MitigationReport struct {
	Profile string

	// SuppressBPOnNonBr evaluation (Observation O4).
	SuppressSupported bool
	BaselineReach     Reach // jmp*-trained non-branch victim, MSR clear
	SuppressReach     Reach // same with the MSR set: EX must vanish, IF/ID stay
	// BranchVictimReachWithMSR shows P2/P3's escape hatch: with the MSR
	// set, victims that *are* branches still reach execute on Zen 1/2
	// ("given that branches are common in software, the impact of this
	// mitigation is negligible").
	BranchVictimReachWithMSR Reach
	// OverheadPct is the workload-suite geometric-mean slowdown with the
	// bit set (paper: 0.69% single-core UnixBench on Zen 2).
	OverheadPct float64

	// AutoIBRS evaluation (Observation O5).
	AutoIBRSSupported bool
	// AutoIBRSCrossPrivIF reports whether a user-injected prediction still
	// causes a kernel-mode instruction fetch with AutoIBRS on.
	AutoIBRSCrossPrivIF bool
	// AutoIBRSCrossPrivID reports whether it reaches decode (it must not).
	AutoIBRSCrossPrivID bool

	// IBPB evaluation (Section 8.2): with a full-predictor-flush IBPB on
	// kernel entry, no primitive survives.
	IBPBBlocksPhantom bool
	// IBPBOverheadPct is the syscall-workload slowdown with IBPB on entry.
	IBPBOverheadPct float64

	// WaitForDecode evaluation: the paper's hypothetical in-depth fix
	// ("stop predictions until the decoding of the branch source has
	// finished", Section 8.1), which no shipping part implements. The
	// simulator does, so its coverage and cost are measurable.
	WaitForDecodeReach       Reach   // non-branch victim with the bit set: nothing
	WaitForDecodeOverheadPct float64 // workload-suite cost
}

// EvaluateMitigations runs the mitigation experiments on one profile.
func EvaluateMitigations(ctx context.Context, p *uarch.Profile, seed int64) (*MitigationReport, error) {
	telemetry.CountExperiment("mitigations")
	rep := &MitigationReport{
		Profile:           p.String(),
		SuppressSupported: p.SupportsSuppressBPOnNonBr,
		AutoIBRSSupported: p.SupportsAutoIBRS,
	}

	// --- SuppressBPOnNonBr: observation channels --------------------------
	var err error
	rep.BaselineReach, err = runCombo(ctx, p, seed, KindJmpInd, KindNonBranch, 4, 0, uarch.MSRState{})
	if err != nil {
		return nil, err
	}
	if p.SupportsSuppressBPOnNonBr {
		msr := uarch.MSRState{SuppressBPOnNonBr: true}
		rep.SuppressReach, err = runCombo(ctx, p, seed, KindJmpInd, KindNonBranch, 4, 0, msr)
		if err != nil {
			return nil, err
		}
		rep.BranchVictimReachWithMSR, err = runCombo(ctx, p, seed, KindJmpInd, KindJmp, 4, 0, msr)
		if err != nil {
			return nil, err
		}
		rep.OverheadPct, err = SuppressOverhead(ctx, p, seed)
		if err != nil {
			return nil, err
		}
	}

	// --- AutoIBRS: cross-privilege IF persists ----------------------------
	if p.SupportsAutoIBRS {
		ifSig, idSig, err := crossPrivReach(ctx, p, seed, true)
		if err != nil {
			return nil, err
		}
		rep.AutoIBRSCrossPrivIF = ifSig
		rep.AutoIBRSCrossPrivID = idSig
	}

	// --- IBPB on kernel entry blocks everything ---------------------------
	blocked, overhead, err := ibpbEvaluation(ctx, p, seed)
	if err != nil {
		return nil, err
	}
	rep.IBPBBlocksPhantom = blocked
	rep.IBPBOverheadPct = overhead

	// --- The hypothetical wait-for-decode frontend (Section 8.1) ----------
	rep.WaitForDecodeReach, err = runCombo(ctx, p, seed, KindJmpInd, KindNonBranch, 4, 0,
		uarch.MSRState{WaitForDecode: true})
	if err != nil {
		return nil, err
	}
	// Its cost: every prediction validated against the decoded branch
	// source before steering.
	rep.WaitForDecodeOverheadPct, err = workloadOverhead(ctx, p, seed, func(m *pipeline.Machine) error {
		m.MSR.WaitForDecode = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// overheadPct reduces per-workload timings to the geometric-mean
// slowdown percentage. Workloads are reduced in sorted name order:
// float multiplication rounds differently under reassociation, so map
// iteration order would let the same measurements print different
// digits run to run.
func overheadPct(off, on map[string]float64) float64 {
	names := make([]string, 0, len(off))
	for name := range off {
		names = append(names, name)
	}
	sort.Strings(names)
	var ratios []float64
	for _, name := range names {
		if base := off[name]; base > 0 {
			ratios = append(ratios, on[name]/base)
		}
	}
	return (stats.GeoMean(ratios) - 1) * 100
}

// SuppressOverhead measures the SuppressBPOnNonBr performance cost on
// the workload suite (see workloadOverhead).
func SuppressOverhead(ctx context.Context, p *uarch.Profile, seed int64) (float64, error) {
	return workloadOverhead(ctx, p, seed, func(m *pipeline.Machine) error {
		if !m.WriteMSRSuppressBPOnNonBr(true) {
			return fmt.Errorf("core: MSR write failed on %s", p)
		}
		return nil
	})
}

// workloadOverhead measures a mitigation's cost: each workload runs 5
// times (median) on a fresh boot without it and on one where enable
// turned it on, and the geometric mean of the slowdowns is reported as
// a percentage — the UnixBench methodology of Section 6.3.
func workloadOverhead(ctx context.Context, p *uarch.Profile, seed int64, enable func(*pipeline.Machine) error) (float64, error) {
	measure := func(on bool) (map[string]float64, error) {
		k, err := kernel.Boot(p, kernel.Config{Seed: seed, NoiseLevel: 0, Context: ctx})
		if err != nil {
			return nil, err
		}
		if on {
			if err := enable(k.M); err != nil {
				return nil, err
			}
		}
		ws, err := k.InstallWorkloads()
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64)
		for _, w := range ws {
			var runs []float64
			for r := 0; r < 5; r++ {
				c, err := k.RunWorkload(w)
				if err != nil {
					return nil, err
				}
				runs = append(runs, float64(c))
			}
			out[w.Name] = stats.Median(runs)
		}
		return out, nil
	}
	off, err := measure(false)
	if err != nil {
		return 0, err
	}
	on, err := measure(true)
	if err != nil {
		return 0, err
	}
	return overheadPct(off, on), nil
}

// crossPrivReach injects a user prediction at the kernel getpid nop site
// and measures IF (I-cache Prime+Probe) and ID (op-cache miss counting
// around the victim syscall) of a kernel-text target.
func crossPrivReach(ctx context.Context, p *uarch.Profile, seed int64, autoIBRS bool) (ifSig, idSig bool, err error) {
	k, err := kernel.Boot(p, kernel.Config{Seed: seed, NoiseLevel: 0, Context: ctx})
	if err != nil {
		return false, false, err
	}
	k.M.MSR.AutoIBRS = autoIBRS
	a, err := NewAttack(k)
	if err != nil {
		return false, false, err
	}
	victim := k.ImageBase + kernel.GetpidSiteOff
	const set = 29
	target := k.ImageBase + 0x5000 + uint64(set)<<6

	pp, err := NewIPrimeProbe(k, 0x7fb000000000, set)
	if err != nil {
		return false, false, err
	}

	// Baseline probe time and op-cache misses without injection.
	pp.Prime()
	if err := a.Syscall(kernel.SysGetpid); err != nil {
		return false, false, err
	}
	base := pp.Probe()
	preMiss := k.M.Perf.UopCacheMisses
	if err := a.Syscall(kernel.SysGetpid); err != nil {
		return false, false, err
	}
	baseMiss := k.M.Perf.UopCacheMisses - preMiss

	// Measurement with injection.
	pp.Prime()
	if err := a.InjectPrediction(victim, target); err != nil {
		return false, false, err
	}
	preMiss = k.M.Perf.UopCacheMisses
	if err := a.Syscall(kernel.SysGetpid); err != nil {
		return false, false, err
	}
	injMiss := k.M.Perf.UopCacheMisses - preMiss
	probe := pp.Probe()

	ifSig = probe > base+p.L2.HitLatency/2
	idSig = injMiss > baseMiss
	return ifSig, idSig, nil
}

// ibpbEvaluation turns on IBPB-on-kernel-entry and confirms that the P1
// probe no longer sees a signal, plus its syscall-path overhead.
func ibpbEvaluation(ctx context.Context, p *uarch.Profile, seed int64) (blocked bool, overheadPct float64, err error) {
	run := func(ibpb bool) (sig bool, syscallCycles float64, err error) {
		k, err := kernel.Boot(p, kernel.Config{Seed: seed, NoiseLevel: 0, Context: ctx})
		if err != nil {
			return false, 0, err
		}
		k.M.MSR.IBPBOnKernelEntry = ibpb
		a, err := NewAttack(k)
		if err != nil {
			// Intel profiles cannot even build the attack; treat as
			// blocked with unmeasured overhead.
			return false, 0, nil
		}
		victim := k.ImageBase + kernel.GetpidSiteOff
		const set = 29
		target := k.ImageBase + 0x5000 + uint64(set)<<6
		pp, ppErr := NewIPrimeProbe(k, 0x7fb000000000, set)
		if ppErr != nil {
			return false, 0, ppErr
		}
		pp.Prime()
		if err := a.Syscall(kernel.SysGetpid); err != nil {
			return false, 0, err
		}
		base := pp.Probe()

		pp.Prime()
		if err := a.InjectPrediction(victim, target); err != nil {
			return false, 0, err
		}
		start := k.M.Cycle
		if err := a.Syscall(kernel.SysGetpid); err != nil {
			return false, 0, err
		}
		syscallCycles = float64(k.M.Cycle - start)
		return pp.Probe() > base+p.L2.HitLatency/2, syscallCycles, nil
	}
	sigOff, cycOff, err := run(false)
	if err != nil {
		return false, 0, err
	}
	sigOn, cycOn, err := run(true)
	if err != nil {
		return false, 0, err
	}
	if cycOff > 0 {
		overheadPct = (cycOn/cycOff - 1) * 100
	}
	return sigOff && !sigOn, overheadPct, nil
}

// String renders the report.
func (r *MitigationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mitigation evaluation — %s\n", r.Profile)
	fmt.Fprintf(&b, "  SuppressBPOnNonBr supported: %v\n", r.SuppressSupported)
	fmt.Fprintf(&b, "    non-branch victim reach, MSR clear: %v\n", r.BaselineReach)
	if r.SuppressSupported {
		fmt.Fprintf(&b, "    non-branch victim reach, MSR set:   %v  (O4: IF/ID persist)\n", r.SuppressReach)
		fmt.Fprintf(&b, "    branch victim reach, MSR set:       %v\n", r.BranchVictimReachWithMSR)
		fmt.Fprintf(&b, "    workload-suite overhead:            %.2f%%\n", r.OverheadPct)
	}
	fmt.Fprintf(&b, "  AutoIBRS supported: %v\n", r.AutoIBRSSupported)
	if r.AutoIBRSSupported {
		fmt.Fprintf(&b, "    cross-priv IF with AutoIBRS: %v  (O5: not prevented)\n", r.AutoIBRSCrossPrivIF)
		fmt.Fprintf(&b, "    cross-priv ID with AutoIBRS: %v\n", r.AutoIBRSCrossPrivID)
	}
	fmt.Fprintf(&b, "  IBPB-on-entry blocks Phantom: %v (syscall overhead %.0f%%)\n",
		r.IBPBBlocksPhantom, r.IBPBOverheadPct)
	fmt.Fprintf(&b, "  hypothetical wait-for-decode frontend (§8.1): reach %v, overhead %.2f%%\n",
		r.WaitForDecodeReach, r.WaitForDecodeOverheadPct)
	return b.String()
}
