package telemetry

import (
	"io"
	"sync/atomic"
	"time"
)

// Config tunes an Enable call. Every field is optional; a zero Config
// enables an in-memory registry only.
type Config struct {
	// RunLog, when non-nil, receives the JSONL run log: one record per
	// sweep job plus sweep_start/sweep_end markers and a final summary
	// written by Disable. See DESIGN.md for the schema.
	RunLog io.Writer
	// Progress, when non-nil, receives the live one-line sweep progress
	// rendering (the CLI passes stderr).
	Progress io.Writer
	// Label names the run in the summary record (the CLI uses the
	// experiment name).
	Label string
}

// Hub is one enabled telemetry session: the registry plus the
// configured sinks. At most one hub is active per process.
type Hub struct {
	cfg      Config
	reg      *Registry
	log      *runLog
	prog     *progress
	start    time.Time
	shardSeq atomic.Uint32
	pipe     PipelineStats
}

// active is the process-wide hub; nil means telemetry is disabled.
var active atomic.Pointer[Hub]

// Enable starts a telemetry session and makes it the process-wide hub,
// replacing any previous one without flushing it (call Disable first
// for an orderly handover). It returns the new hub.
func Enable(cfg Config) *Hub {
	h := &Hub{cfg: cfg, reg: NewRegistry(), start: time.Now()}
	if cfg.RunLog != nil {
		h.log = newRunLog(cfg.RunLog)
	}
	if cfg.Progress != nil {
		h.prog = newProgress(cfg.Progress)
	}
	h.pipe = PipelineStats{
		Boots:               h.reg.Counter("pipeline_boots"),
		Runs:                h.reg.Counter("pipeline_runs"),
		Instructions:        h.reg.Counter("pipeline_instructions"),
		Cycles:              h.reg.Counter("pipeline_sim_cycles"),
		FrontendResteers:    h.reg.Counter("pipeline_frontend_resteers"),
		BackendResteers:     h.reg.Counter("pipeline_backend_resteers"),
		TransientFetchLines: h.reg.Counter("pipeline_transient_fetch_lines"),
		TransientDecodes:    h.reg.Counter("pipeline_transient_decodes"),
		PredecodeHits:       h.reg.Counter("pipeline_predecode_hits"),
		PredecodeMisses:     h.reg.Counter("pipeline_predecode_misses"),
		Faults:              h.reg.Counter("pipeline_faults"),
		TimedProbes:         h.reg.Counter("pipeline_timed_probes"),
	}
	active.Store(h)
	return h
}

// Disable ends the active session: it finishes the progress rendering,
// writes the summary record (total wall time plus a full metric
// snapshot) to the run log, flushes it, and deactivates the hub. A
// no-op when no hub is active.
func Disable() error {
	h := active.Swap(nil)
	if h == nil {
		return nil
	}
	h.prog.finish()
	if h.log == nil {
		return nil
	}
	h.log.record(record{
		Type:   "summary",
		Label:  h.cfg.Label,
		WallMS: float64(time.Since(h.start)) / float64(time.Millisecond),
		Snap:   ptr(h.reg.Snapshot()),
	})
	return h.log.flush()
}

func ptr[T any](v T) *T { return &v }

// Active returns the current hub, or nil when telemetry is disabled.
func Active() *Hub { return active.Load() }

// Registry exposes the hub's metric registry (for the debug server and
// tests). Nil-safe: a nil hub returns a nil registry whose lookups
// return no-op handles.
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// PipelineStats are the harness-side interpreter tallies, aggregated
// across every Machine booted while the hub is active. They mirror
// events the simulator already counts in its modeled PerfCounters /
// DebugCounters but live entirely outside the model: machines batch
// deltas into these sharded counters at Run boundaries, charging no
// modeled cycles and touching no modeled structure.
type PipelineStats struct {
	// Boots counts machine starts: every pipeline.New and every
	// Machine.Reset, which returns a machine to the state New gives.
	Boots, Runs          *Counter
	Instructions, Cycles *Counter

	FrontendResteers, BackendResteers     *Counter
	TransientFetchLines, TransientDecodes *Counter
	PredecodeHits, PredecodeMisses        *Counter

	Faults      *Counter
	TimedProbes *Counter
}

// MachineStats hands a booting Machine its tally handles plus a shard
// assignment (round-robin, so concurrent sweep machines spread across
// counter shards). When telemetry is disabled it returns nil handles —
// the Machine's record paths then reduce to one nil check.
func MachineStats() (*PipelineStats, int) {
	h := Active()
	if h == nil {
		return nil, 0
	}
	return &h.pipe, int(h.shardSeq.Add(1) - 1)
}

// CountExperiment bumps the per-driver invocation counter for name
// (e.g. "kaslr_image"). Experiment drivers in internal/core call this
// once per run; it is a no-op when telemetry is disabled.
func CountExperiment(name string) {
	h := Active()
	if h == nil {
		return
	}
	h.reg.Counter("experiment_" + name).Inc(0)
}
