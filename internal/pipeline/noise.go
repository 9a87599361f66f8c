package pipeline

import (
	"math/rand"

	"phantom/internal/cache"
)

// NoiseSource injects the microarchitectural interference that makes the
// paper's attacks statistical rather than single-shot: system calls
// thrashing cache sets before the attacker can probe them, instruction
// prefetching polluting the I-cache, and (optionally) a sibling SMT
// thread's working set. Magnitudes are per-profile-tunable through the
// Level field; the §7.3 scoring machinery exists precisely to survive this
// noise, and tests exercise it at several levels.
type NoiseSource struct {
	m   *Machine
	rng *rand.Rand

	// Level scales event probabilities; 0 disables noise, 1 is the
	// default calibration.
	Level float64

	// SiblingStress models `stress -c N` on the SMT sibling: when > 0,
	// every Tick additionally evicts that many random L1I lines
	// (Section 6.4 uses sibling stress to *improve* the fetch channel by
	// slowing the victim; here it raises baseline probe latencies, which
	// has the same thresholding benefit).
	SiblingStress int
}

// SyscallThrash perturbs cache state the way a kernel entry/exit path
// does: a few I-cache and D-cache sets get touched by lines the attacker
// does not control.
func (n *NoiseSource) SyscallThrash() {
	if n.Level <= 0 {
		return
	}
	// Each syscall touches a handful of random lines; high physical
	// addresses avoid colliding with simulated program data by accident
	// (they model unrelated kernel working set).
	const noiseBase = 1 << 44
	touches := int(3 * n.Level)
	for i := 0; i < touches; i++ {
		pa := noiseBase + uint64(n.rng.Intn(1<<20))*cache.LineSize
		if n.rng.Intn(2) == 0 {
			n.m.Hier.L1I.Access(pa)
		} else {
			n.m.Hier.L1D.Access(pa)
		}
		if n.rng.Float64() < 0.25*n.Level {
			n.m.Hier.L2.Access(pa)
		}
	}
}

// Tick runs ambient noise: occasional random evictions modeling other
// processes, the OS tick, and prefetchers.
func (n *NoiseSource) Tick() {
	if n.Level <= 0 {
		return
	}
	const noiseBase = 1 << 45
	if n.rng.Float64() < 0.05*n.Level {
		pa := noiseBase + uint64(n.rng.Intn(1<<18))*cache.LineSize
		n.m.Hier.L2.Access(pa)
	}
	// Sibling stress: the SMT partner's instruction working set leaks
	// into the shared L1I at a rate proportional to its load — a few
	// lines per hundred victim instructions at `stress -c 10`.
	if n.SiblingStress > 0 && n.rng.Float64() < 0.003*float64(n.SiblingStress) {
		pa := noiseBase + uint64(n.rng.Intn(1<<18))*cache.LineSize
		n.m.Hier.L1I.Access(pa)
	}
}
