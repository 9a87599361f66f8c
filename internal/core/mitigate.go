package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"phantom/internal/kernel"
	"phantom/internal/pipeline"
	"phantom/internal/stats"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// MitigationReport collects the Section 6.3 / Section 8 evaluation for one
// microarchitecture.
type MitigationReport struct {
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
// Its observation-channel combos run one after another on one machine,
// reset before each, its kernel boots one after another on another, and
// both workload-suite costs compare against one unmitigated run of the
// suite.
func EvaluateMitigations(ctx context.Context, p *uarch.Profile, seed int64) (*MitigationReport, error) {
	telemetry.CountExperiment("mitigations")
	rep := &MitigationReport{
		SuppressSupported: p.SupportsSuppressBPOnNonBr,
		AutoIBRSSupported: p.SupportsAutoIBRS,
	}
	var m *pipeline.Machine
	combo := func(victim BranchKind, msr uarch.MSRState) (Reach, error) {
		m = pipeline.Renew(m, p, userPhysBytes, seed)
		return runCombo(ctx, m, KindJmpInd, victim, 4, 0, msr)
	}
	boots := NoiselessReboots(ctx, p, seed)
	base, err := workloadSuite(boots, nil)
	if err != nil {
		return nil, err
	}

	// --- SuppressBPOnNonBr: observation channels --------------------------
	rep.BaselineReach, err = combo(KindNonBranch, uarch.MSRState{})
	if err != nil {
		return nil, err
	}
	if p.SupportsSuppressBPOnNonBr {
		msr := uarch.MSRState{SuppressBPOnNonBr: true}
		rep.SuppressReach, err = combo(KindNonBranch, msr)
		if err != nil {
			return nil, err
		}
		rep.BranchVictimReachWithMSR, err = combo(KindJmp, msr)
		if err != nil {
			return nil, err
		}
		on, err := workloadSuite(boots, enableSuppressBPOnNonBr)
		if err != nil {
			return nil, err
		}
		rep.OverheadPct = overheadPct(base, on)
	}

	// --- AutoIBRS: cross-privilege IF persists ----------------------------
	if p.SupportsAutoIBRS {
		ifSig, idSig, err := crossPrivReach(boots)
		if err != nil {
			return nil, err
		}
		rep.AutoIBRSCrossPrivIF = ifSig
		rep.AutoIBRSCrossPrivID = idSig
	}

	// --- IBPB on kernel entry blocks everything ---------------------------
	blocked, overhead, err := ibpbEvaluation(boots)
	if err != nil {
		return nil, err
	}
	rep.IBPBBlocksPhantom = blocked
	rep.IBPBOverheadPct = overhead

	// --- The hypothetical wait-for-decode frontend (Section 8.1) ----------
	rep.WaitForDecodeReach, err = combo(KindNonBranch, uarch.MSRState{WaitForDecode: true})
	if err != nil {
		return nil, err
	}
	// Its cost: every prediction validated against the decoded branch
	// source before steering.
	on, err := workloadSuite(boots, func(m *pipeline.Machine) error {
		m.MSR.WaitForDecode = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.WaitForDecodeOverheadPct = overheadPct(base, on)
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

// enableSuppressBPOnNonBr sets the SuppressBPOnNonBr bit through its
// MSR write, which fails on parts without it.
func enableSuppressBPOnNonBr(m *pipeline.Machine) error {
	if !m.WriteMSRSuppressBPOnNonBr(true) {
		return fmt.Errorf("core: MSR write failed on %s", m.Prof)
	}
	return nil
}

// workloadSuite runs each workload 5 times on the next of boots, after
// enable (when not nil) turned a mitigation on, and returns each one's
// median cycles. A mitigation's cost is the geometric mean of the slowdowns
// against the suite without it (overheadPct): the UnixBench methodology
// of Section 6.3.
func workloadSuite(boots *Reboots, enable func(*pipeline.Machine) error) (map[string]float64, error) {
	k, err := boots.boot()
	if err != nil {
		return nil, err
	}
	if enable != nil {
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

// getpidRound is the cross-privilege P1 round the AutoIBRS and IBPB
// evaluations share: a user-trained prediction at the kernel's getpid
// nop site toward a kernel-text line in I-cache set 29.
type getpidRound struct {
	a              *Attack
	pp             *IPrimeProbe
	victim, target uint64
}

// newGetpidRound boots, lets msr set the mitigation under test and
// builds the round. It fails with errNoCrossPriv on parts whose BTB
// admits no cross-privilege aliasing.
func newGetpidRound(boots *Reboots, msr func(*uarch.MSRState)) (*getpidRound, error) {
	k, err := boots.boot()
	if err != nil {
		return nil, err
	}
	msr(&k.M.MSR)
	a, err := NewAttack(k)
	if err != nil {
		return nil, err
	}
	const set = 29
	pp, err := NewIPrimeProbe(k, 0x7fb000000000, set)
	if err != nil {
		return nil, err
	}
	return &getpidRound{
		a:      a,
		pp:     pp,
		victim: k.ImageBase + kernel.GetpidSiteOff,
		target: k.ImageBase + 0x5000 + set<<6,
	}, nil
}

func (r *getpidRound) getpid() error { return r.a.Syscall(kernel.SysGetpid) }

// signal reports whether a probe after injection lost a primed way
// against the quiet baseline.
func (r *getpidRound) signal(probe int, base float64) bool {
	return float64(probe) > base+float64(r.a.K.M.Prof.L2.HitLatency/2)
}

// crossPrivReach runs the round with AutoIBRS on and measures IF (I-cache
// Prime+Probe) and ID (op-cache miss counting around the victim syscall)
// of the kernel-text target.
func crossPrivReach(boots *Reboots) (ifSig, idSig bool, err error) {
	r, err := newGetpidRound(boots, func(msr *uarch.MSRState) { msr.AutoIBRS = true })
	if err != nil {
		return false, false, err
	}
	perf := &r.a.K.M.Perf

	// Baseline probe time and op-cache misses without injection.
	base, err := quiet(r.pp, 1, r.getpid)
	if err != nil {
		return false, false, err
	}
	preMiss := perf.UopCacheMisses
	if err := r.getpid(); err != nil {
		return false, false, err
	}
	baseMiss := perf.UopCacheMisses - preMiss

	// Measurement with injection.
	var injMiss uint64
	probe, err := r.a.observe(r.pp, r.victim, r.target, func() error {
		preMiss := perf.UopCacheMisses
		err := r.getpid()
		injMiss = perf.UopCacheMisses - preMiss
		return err
	})
	if err != nil {
		return false, false, err
	}
	return r.signal(probe, base), injMiss > baseMiss, nil
}

// ibpbEvaluation turns on IBPB-on-kernel-entry and confirms that the P1
// probe no longer sees a signal, plus its syscall-path overhead.
func ibpbEvaluation(boots *Reboots) (blocked bool, overheadPct float64, err error) {
	run := func(ibpb bool) (sig bool, syscallCycles float64, err error) {
		r, err := newGetpidRound(boots, func(msr *uarch.MSRState) { msr.IBPBOnKernelEntry = ibpb })
		if errors.Is(err, errNoCrossPriv) {
			// Intel profiles cannot even build the attack; treat as
			// blocked with unmeasured overhead.
			return false, 0, nil
		}
		if err != nil {
			return false, 0, err
		}
		base, err := quiet(r.pp, 1, r.getpid)
		if err != nil {
			return false, 0, err
		}
		m := r.a.K.M
		probe, err := r.a.observe(r.pp, r.victim, r.target, func() error {
			start := m.Cycle
			err := r.getpid()
			syscallCycles = float64(m.Cycle - start)
			return err
		})
		if err != nil {
			return false, 0, err
		}
		return r.signal(probe, base), syscallCycles, nil
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
