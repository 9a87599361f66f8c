package core

import (
	"context"

	"phantom/internal/kernel"
	"phantom/internal/stats"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// CovertResult reports one covert-channel run in Table 2's terms.
type CovertResult struct {
	Bits     int
	Accuracy stats.Accuracy
	Cycles   uint64
	// BitsPerSecond uses the nominal 3 GHz clock. Simulated syscalls are
	// orders of magnitude cheaper than real ones, so absolute rates run
	// high; the Accuracy column and the relative behaviour across
	// microarchitectures are the reproduction targets.
	BitsPerSecond float64
}

// CovertConfig tunes a covert-channel run.
type CovertConfig struct {
	Seed  int64
	Bits  int     // message length (Table 2 uses 4096)
	Noise float64 // defaults to 1 (calibrated)
	// SiblingStress models `stress -c N` on the SMT sibling thread, which
	// the paper runs during the fetch channel ("we furthermore stress the
	// sibling thread", Section 6.4). In this single-core model it only
	// adds I-cache interference; the paper's accuracy *gain* came from
	// slowing the victim thread, which has no analogue here.
	SiblingStress int
}

func (c CovertConfig) withDefaults() CovertConfig {
	if c.Bits == 0 {
		c.Bits = 4096
	}
	if c.Noise == 0 {
		c.Noise = 1
	}
	return c
}

// calibrationRounds is how many known-bit rounds of each value pick the
// probe threshold before the message.
const calibrationRounds = 12

// covertChannel carries the shared mechanics of the fetch and execute
// variants of Section 6.4.
type covertChannel struct {
	a       *Attack
	recv    channel // the receiving end: prime before each bit, probe after
	victim  uint64  // kernel branch the prediction hijacks
	target1 uint64  // injected target encoding bit 1
	target0 uint64  // injected target encoding bit 0
	arg     func(bit byte) uint64
}

// transmit runs one primitive round per bit.
func (c *covertChannel) transmit(cfg CovertConfig) (*CovertResult, error) {
	m := c.a.K.M
	rng := m.RNG()

	sendBit := func(b byte) (int, error) {
		target := c.target0
		if b == 1 {
			target = c.target1
		}
		return c.a.observe(c.recv, c.victim, target, func() error {
			return c.a.Syscall(kernel.SysCovertBranch, 0, c.arg(b))
		})
	}

	// Calibration: send known bits, split the distributions.
	var ones, zeros []float64
	for i := 0; i < calibrationRounds; i++ {
		t1, err := sendBit(1)
		if err != nil {
			return nil, err
		}
		t0, err := sendBit(0)
		if err != nil {
			return nil, err
		}
		ones = append(ones, float64(t1))
		zeros = append(zeros, float64(t0))
	}
	threshold := (stats.Median(ones) + stats.Median(zeros)) / 2

	msg := make([]byte, cfg.Bits)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}

	res := &CovertResult{Bits: cfg.Bits}
	start := m.Cycle
	for _, b := range msg {
		t, err := sendBit(b)
		if err != nil {
			return nil, err
		}
		got := byte(0)
		if float64(t) > threshold {
			got = 1 // slower probe: the primed set lost a way -> target mapped
		}
		res.Accuracy.Add(got == b)
	}
	res.Cycles = m.Cycle - start
	res.BitsPerSecond = float64(cfg.Bits) / CyclesToSeconds(res.Cycles)
	return res, nil
}

// covertISet is the L1I set the fetch channel signals through, chosen away
// from the sets the syscall path itself thrashes (the kernel entry, covert
// module and trampoline all live at low page offsets).
const covertISet = 33

// RunCovertFetch reproduces Table 2 (top): the P1 fetch channel. T1 is a
// mapped executable kernel address, T0 an unmapped one; for each bit the
// attacker primes an instruction-cache set, injects a prediction to T_b at
// a direct branch of the covert kernel module, invokes it, and probes.
func RunCovertFetch(ctx context.Context, p *uarch.Profile, cfg CovertConfig) (*CovertResult, error) {
	telemetry.CountExperiment("covert_fetch")
	cfg = cfg.withDefaults()
	k, err := kernel.Boot(p, kernel.Config{Seed: cfg.Seed, NoiseLevel: cfg.Noise, Context: ctx})
	if err != nil {
		return nil, err
	}
	k.M.Noise.SiblingStress = cfg.SiblingStress
	a, err := NewAttack(k)
	if err != nil {
		return nil, err
	}

	setOff := uint64(covertISet << 6)
	t1 := k.ImageBase + 0x3000 + setOff                 // inside mapped kernel text
	t0 := kernel.KernelRegionBase - 0x40000000 + setOff // kernel VA, unmapped

	pp, err := NewIPrimeProbe(k, 0x7f1000000000, covertISet)
	if err != nil {
		return nil, err
	}

	ch := &covertChannel{
		a:       a,
		recv:    pp,
		victim:  k.Symbol("covert_branch_site"),
		target1: t1,
		target0: t0,
		arg:     func(byte) uint64 { return 0 },
	}
	return ch.transmit(cfg)
}

// RunCovertExecute reproduces Table 2 (bottom): the P2 execute channel.
// The injected target is always the kernel's load gadget; the transmitted
// bit selects whether the register it dereferences points at mapped
// (physmap) or unmapped kernel memory. Works only where Phantom
// speculation reaches execute — AMD Zen 1 and Zen 2.
func RunCovertExecute(ctx context.Context, p *uarch.Profile, cfg CovertConfig) (*CovertResult, error) {
	telemetry.CountExperiment("covert_execute")
	cfg = cfg.withDefaults()
	k, err := kernel.Boot(p, kernel.Config{Seed: cfg.Seed, NoiseLevel: cfg.Noise, Context: ctx})
	if err != nil {
		return nil, err
	}
	a, err := NewAttack(k)
	if err != nil {
		return nil, err
	}

	// The monitored physical line: far from anything the workload touches.
	probePA := uint64(0x40000000) | 0x840
	t1 := k.PhysmapVA(probePA)                      // mapped (physmap), non-executable
	t0 := kernel.PhysmapRegionBase - 0x2000 + 0x840 // unmapped kernel VA

	hugeVA := uint64(0x7f2000000000)
	if _, err := k.AllocUserHuge(hugeVA); err != nil {
		return nil, err
	}

	ch := &covertChannel{
		a:       a,
		recv:    NewDPrimeProbe(k.M, hugeVA, probePA),
		victim:  k.Symbol("covert_branch_site"),
		target1: k.Symbol("covert_exec_gadget"),
		target0: k.Symbol("covert_exec_gadget"),
		arg: func(b byte) uint64 {
			if b == 1 {
				return t1
			}
			return t0
		},
	}
	return ch.transmit(cfg)
}
