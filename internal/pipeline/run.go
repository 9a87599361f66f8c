package pipeline

import (
	"errors"
	"fmt"

	"phantom/internal/btb"
	"phantom/internal/cache"
	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

// StopReason says why Run returned.
type StopReason uint8

// Stop reasons.
const (
	StopHalt      StopReason = iota // hlt retired
	StopFault                       // page fault (RIP points at the faulting instruction)
	StopTrap                        // int3 or undecodable instruction
	StopLimit                       // instruction budget exhausted
	StopCancelled                   // the bound run context was done on entry (see Bind)
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopFault:
		return "fault"
	case StopTrap:
		return "trap"
	case StopLimit:
		return "limit"
	case StopCancelled:
		return "cancelled"
	}
	return "stop?"
}

// RunResult reports how a Run ended.
type RunResult struct {
	Reason StopReason
	Fault  *mem.Fault // set when Reason == StopFault
	Steps  int        // architectural instructions retired

	cause error // the bound context's error when Reason == StopCancelled
}

// Expect returns nil when the run stopped for the wanted reason, else an
// error describing the stop. A cancelled run's error is the bound
// context's own, so errors.Is(err, context.DeadlineExceeded) holds for
// every harness that wraps it.
func (r RunResult) Expect(want StopReason) error {
	switch r.Reason {
	case want:
		return nil
	case StopCancelled:
		return r.cause
	}
	return errors.New(r.String())
}

func (r RunResult) String() string {
	if r.Fault != nil {
		return fmt.Sprintf("%v after %d steps (%v)", r.Reason, r.Steps, r.Fault)
	}
	return fmt.Sprintf("%v after %d steps", r.Reason, r.Steps)
}

// Run interprets architectural instructions starting at RIP until a halt,
// trap, fault, or the step limit. On fault, RIP still points at the
// faulting instruction so a harness "signal handler" can redirect and
// resume — the mechanism user-mode training code uses when it branches
// into the kernel and catches the page fault (Section 6.2).
//
// A machine bound to a done context stops on entry with StopCancelled
// and retires nothing. Every attack loop runs the machine at least once
// per iteration, so this one check bounds how long a cancelled
// experiment keeps running without a per-instruction cost.
func (m *Machine) Run(limit int) RunResult {
	select {
	case <-m.done:
		return RunResult{Reason: StopCancelled, cause: m.ctx.Err()}
	default:
	}
	for steps := 0; steps < limit; steps++ {
		if stop := m.step(); stop != nil {
			stop.Steps = steps + 1
			r := *stop
			m.flushTelemetry()
			return r
		}
		m.Noise.Tick()
	}
	m.flushTelemetry()
	return RunResult{Reason: StopLimit, Steps: limit}
}

// RunAt sets RIP and runs.
func (m *Machine) RunAt(entry uint64, limit int) RunResult {
	m.RIP = entry
	return m.Run(limit)
}

// step executes one architectural instruction; nil means continue.
func (m *Machine) step() *RunResult {
	va := m.RIP

	// 1. Branch prediction unit: consulted with the fetch address, before
	// the bytes at va are decoded (paper Section 1, "speculation before
	// instruction decode"). The training instruction's class decides the
	// prediction semantics.
	pred, predHit := m.BTB.Lookup(va, m.Kernel)
	predUsable := predHit
	if predHit {
		m.emit(EvPredHit, va, pred.Target)
	}
	if predHit && m.MSR.AutoIBRS && pred.TrainedKernel != m.Kernel {
		// AutoIBRS refuses to steer by a cross-privilege prediction, but
		// the fetch of the predicted target has already been initiated —
		// Observation O5: "AMD AutoIBRS does not prevent IF of cross
		// privilege mode branch targets."
		m.emit(EvPredRejected, va, pred.Target)
		m.prefetchPredictedTarget(pred, va)
		predUsable = false
	}

	// 2. Instruction fetch, charged per cache line.
	if line := va &^ (cache.LineSize - 1); line != m.lastFetchLine {
		if _, f := m.fetchLatency(va); f != nil {
			return m.fault(f)
		}
		m.lastFetchLine = line
		m.emit(EvFetchLine, line, 0)
	}
	inp, f := m.decodeAt(va)
	if f != nil {
		return m.fault(f)
	}
	in := *inp
	if in.Op == isa.OpInvalid {
		m.Debug.Faults++
		return m.stop(RunResult{Reason: StopTrap})
	}
	if end := (va + uint64(in.Len) - 1) &^ (cache.LineSize - 1); end != m.lastFetchLine {
		if _, f := m.fetchLatency(va + uint64(in.Len) - 1); f != nil {
			return m.fault(f)
		}
		m.lastFetchLine = end
	}

	// 3. Decode / µop cache, per line.
	if uline := va &^ (cache.LineSize - 1); uline != m.lastUopLine {
		if hit, _, _ := m.Uop.Access(va); hit {
			m.Perf.UopCacheHits++
			m.lastUopLineMissed = false
		} else {
			m.Perf.UopCacheMisses++
			m.lastUopLineMissed = true
		}
		m.lastUopLine = uline
	}
	m.Cycle++
	m.Perf.Instructions++
	m.Perf.BTBLookups++
	if predHit {
		m.Perf.BTBHits++
		if m.MSR.WaitForDecode {
			// The hypothetical Section 8.1 mitigation: every predicted
			// steer waits for the source's decode, costing a bubble even
			// on correct predictions.
			m.Cycle += uarch.WaitForDecodeBubble
		}
		if m.MSR.SuppressBPOnNonBr && m.lastUopLineMissed {
			// With the mitigation the frontend must wait for pre-decode
			// branch-presence marker bits before consuming a prediction.
			// The markers live alongside the decoded µops, so only lines
			// that miss the µop cache pay the wait — the source of the
			// sub-1% benchmark overhead measured in Section 6.3.
			m.Cycle += 2
		}
	}

	// 4. Reconcile prediction with the decoded instruction. Mispredictions
	// spawn a bounded wrong-path episode and charge a resteer.
	if predUsable {
		m.reconcilePrediction(va, in, pred)
	} else {
		m.handleUnpredicted(va, in)
	}

	// 5. Execute architecturally.
	m.Perf.Cycles = m.Cycle
	return m.exec(va, in)
}

func (m *Machine) fault(f *mem.Fault) *RunResult {
	m.Debug.Faults++
	m.emit(EvFault, f.VA, 0)
	return m.stop(RunResult{Reason: StopFault, Fault: f})
}

// stop parks r in the machine-owned scratch slot and returns its address,
// so the per-instruction stop path never heap-allocates. Run copies the
// value out immediately; callers must not hold the pointer across steps.
func (m *Machine) stop(r RunResult) *RunResult {
	m.stopScratch = r
	return &m.stopScratch
}

// prefetchPredictedTarget fills the I-cache line of a prediction whose use
// was rejected by a mitigation. Only present+executable targets fill, as
// with any instruction fetch.
func (m *Machine) prefetchPredictedTarget(pred btb.Prediction, va uint64) {
	if m.DisableSpeculation {
		return
	}
	target := pred.Target
	if pred.Class == isa.BrRet {
		t, ok := m.RSB.Peek()
		if !ok {
			return
		}
		target = t
	}
	if pa, _, ok := m.AS().TranslateV(target, mem.AccessFetch, !m.Kernel); ok {
		m.Hier.AccessFetch(pa)
		m.Debug.PrefetchOnRejectedPrediction++
	}
}
