package core

import "phantom/internal/pipeline"

// This file implements the paper's three attacker primitives (Section 6.1)
// as the one round every exploit runs. Each round follows the three steps
// the paper numbers: ① prime the observation state, ② inject a prediction
// and invoke the victim, ③ probe.
//
// P1 — detect mapped executable memory: the phantom fetch of target T
// fills the I-cache only when T is present and executable. The covert
// fetch channel (Table 2), the image KASLR break (Table 3) and the
// AutoIBRS and IBPB evaluations observe it through an IPrimeProbe.
//
// P2 — detect mapped non-executable memory (AMD Zen 1/2): the phantom
// window executes a kernel load gadget whose address register the
// attacker controls; the D-cache fill reveals whether the address is
// mapped. The covert execute channel and the physmap KASLR break
// (Table 4) observe it through a DPrimeProbe, the physical-address
// search (Table 5) through a FlushReload.
//
// P3 — leak a register value (AMD Zen 1/2): the gadget arranges a byte of
// the register into bits [13:6] of an offset into an attacker-observable
// buffer and loads it; a reloadBuffer recovers the byte. The MDS leak
// (Section 7.4) nests it under a Spectre window, and the Spectre-V2
// baseline reads its conventional gadget through the same buffer.

// channel is the observation side of a round: Prime establishes the
// monitored cache state and Probe measures it in cycles.
type channel interface {
	Prime()
	Probe() int
}

// observe runs one primitive round: prime ch, inject a jmp* prediction
// toward target at the kernel branch source victim, invoke the victim,
// and probe.
func (a *Attack) observe(ch channel, victim, target uint64, invoke func() error) (int, error) {
	ch.Prime()
	if err := a.InjectPrediction(victim, target); err != nil {
		return 0, err
	}
	if err := invoke(); err != nil {
		return 0, err
	}
	return ch.Probe(), nil
}

// quiet is a round's no-injection baseline: the mean probe over reps
// rounds of prime, invoke, probe.
func quiet(ch channel, reps int, invoke func() error) (float64, error) {
	total := 0
	for r := 0; r < reps; r++ {
		ch.Prime()
		if err := invoke(); err != nil {
			return 0, err
		}
		total += ch.Probe()
	}
	return float64(total) / float64(reps), nil
}

// reloadBuffer is the P3 receiver: 256 cache lines at va, one per value
// of the leaked byte.
type reloadBuffer struct {
	m  *pipeline.Machine
	va uint64
}

// flush evicts every line of the buffer from the whole hierarchy.
func (rb reloadBuffer) flush() {
	for v := 0; v < 256; v++ {
		rb.m.FlushVA(rb.va + uint64(v)*64)
	}
}

// scan reloads every line and returns the value of the fastest one. It
// reports false when even that line came from DRAM: nothing touched the
// buffer since the flush.
func (rb reloadBuffer) scan() (byte, bool) {
	bestV, bestLat := -1, 1<<30
	for v := 0; v < 256; v++ {
		lat, ok := rb.m.TimedLoad(rb.va + uint64(v)*64)
		if ok && lat < bestLat {
			bestV, bestLat = v, lat
		}
	}
	if bestV < 0 || bestLat >= fetchLatencyThreshold(rb.m.Prof) {
		return 0, false
	}
	return byte(bestV), true
}
