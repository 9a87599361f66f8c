package pipeline

import "phantom/internal/telemetry"

// Harness telemetry for the interpreter. The Machine already maintains
// the modeled PerfCounters (attacker-visible) and DebugCounters
// (simulator ground truth); telemetry wants the same event stream
// aggregated across every machine in a sweep, without adding atomic
// operations to the per-instruction hot path. So each machine batches:
// it remembers the counter values it last reported (telemetryBaseline)
// and flushes the deltas into the hub's sharded counters at Run
// boundaries — a handful of uncontended atomic adds per Run call,
// amortized over the hundreds-to-millions of instructions a Run
// interprets. Reading the counters perturbs nothing: no modeled cycles
// are charged and no modeled structure is touched, preserving the
// telemetry parity invariant.

// telemetryBaseline snapshots the counter values already flushed.
type telemetryBaseline struct {
	instructions uint64
	cycles       uint64
	debug        DebugCounters
}

// flushTelemetry reports the counter deltas since the previous flush to
// the active hub. A no-op (one nil check) when telemetry is disabled.
func (m *Machine) flushTelemetry() {
	t := m.tstat
	if t == nil {
		return
	}
	sh := m.tshard
	t.Runs.Inc(sh)
	t.Instructions.Add(sh, m.Perf.Instructions-m.tlast.instructions)
	t.Cycles.Add(sh, m.Cycle-m.tlast.cycles)
	d, last := &m.Debug, &m.tlast.debug
	t.FrontendResteers.Add(sh, d.FrontendResteers-last.FrontendResteers)
	t.BackendResteers.Add(sh, d.BackendResteers-last.BackendResteers)
	t.TransientFetchLines.Add(sh, d.TransientFetchLines-last.TransientFetchLines)
	t.TransientDecodes.Add(sh, d.TransientDecodes-last.TransientDecodes)
	t.PredecodeHits.Add(sh, d.PredecodeHits-last.PredecodeHits)
	t.PredecodeMisses.Add(sh, d.PredecodeMisses-last.PredecodeMisses)
	t.Faults.Add(sh, d.Faults-last.Faults)
	m.tlast = telemetryBaseline{
		instructions: m.Perf.Instructions,
		cycles:       m.Cycle,
		debug:        m.Debug,
	}
}

// attachTelemetry hooks a starting machine (New or Reset) to the active
// hub (nil handles when disabled) and counts the start as a boot.
func (m *Machine) attachTelemetry() {
	m.tstat, m.tshard = telemetry.MachineStats()
	if m.tstat != nil {
		m.tstat.Boots.Inc(m.tshard)
	}
}

// countTimedProbe tallies one harness-side timed probe (TimedFetch /
// TimedLoad). Probes sit outside the interpreter loop, so a direct
// sharded add is cheap enough here.
func (m *Machine) countTimedProbe() {
	if m.tstat != nil {
		m.tstat.TimedProbes.Inc(m.tshard)
	}
}
