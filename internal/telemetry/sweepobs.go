package telemetry

import (
	"fmt"
	"sync/atomic"
	"time"
)

// SweepScope observes one sweep.Run on behalf of the active hub: it
// feeds the registry (job counts, latency histogram, queue-depth and
// busy-worker gauges), appends per-job records to the run log, and
// drives the live progress line. It implements sweep.Observer
// structurally; all methods are safe for concurrent workers and
// nil-receiver-safe, so a disabled hub costs callers nothing.
type SweepScope struct {
	hub   *Hub
	name  string
	total int

	start   time.Time
	workers int

	done atomic.Int64
	errs atomic.Int64

	jobsDone   *Counter
	jobErrors  *Counter
	jobLatency *Histogram
	queued     *Gauge
	busy       *Gauge
}

// Sweep opens an observation scope for a named sweep of total jobs.
// It returns nil when telemetry is disabled; callers pass the result
// to sweep.Options.Observer only when non-nil (a typed-nil interface
// would still be safe — every method checks the receiver — but a nil
// interface lets the sweep engine skip the callbacks entirely).
func Sweep(name string, total int) *SweepScope {
	h := Active()
	if h == nil {
		return nil
	}
	return &SweepScope{
		hub:        h,
		name:       name,
		total:      total,
		jobsDone:   h.reg.Counter("sweep_jobs_done"),
		jobErrors:  h.reg.Counter("sweep_job_errors"),
		jobLatency: h.reg.Histogram("sweep_job_latency_ns"),
		queued:     h.reg.Gauge("sweep_jobs_queued"),
		busy:       h.reg.Gauge("sweep_workers_busy"),
	}
}

// SweepStart records the sweep opening: job count, pool size, gauges,
// the run-log marker and the initial progress line.
func (s *SweepScope) SweepStart(total, workers int) {
	if s == nil {
		return
	}
	s.total = total
	s.workers = workers
	s.start = time.Now()
	s.queued.Add(int64(total))
	s.hub.log.record(record{Type: "sweep_start", Sweep: s.name, Jobs: total, Workers: workers})
	s.hub.prog.update(s.progressLine(), true)
}

// JobStart marks a job leaving the queue for a worker.
func (s *SweepScope) JobStart(job, worker int) {
	if s == nil {
		return
	}
	s.queued.Add(-1)
	s.busy.Add(1)
}

// JobDone records one finished job: counters, gauges, the latency
// histogram and the per-job run-log record.
func (s *SweepScope) JobDone(job, worker int, d time.Duration, err error) {
	if s == nil {
		return
	}
	s.busy.Add(-1)
	s.done.Add(1)
	s.jobsDone.Inc(worker)
	if err != nil {
		s.errs.Add(1)
		s.jobErrors.Inc(worker)
	}
	s.jobLatency.Observe(worker, uint64(d))
	r := record{
		Type: "job", Sweep: s.name, Job: job, Worker: worker,
		MS: float64(d) / float64(time.Millisecond),
	}
	if err != nil {
		r.Err = err.Error()
	}
	s.hub.log.record(r)
	s.hub.prog.update(s.progressLine(), false)
}

// SweepEnd closes the scope: the run-log marker and a final, persistent
// progress line. The final rendering is not the last throttled live
// tick — it always shows the completed state (every job accounted for,
// 100% when none failed out) with the total elapsed time in place of
// the by-then-meaningless ETA.
func (s *SweepScope) SweepEnd() {
	if s == nil {
		return
	}
	s.hub.log.record(record{
		Type: "sweep_end", Sweep: s.name,
		Done: int(s.done.Load()), Errors: int(s.errs.Load()),
	})
	s.hub.prog.update(s.finalLine(), true)
	s.hub.prog.line()
}

// finalLine renders the completion state SweepEnd persists in the
// scrollback: the full job tally with a percentage, the pool size, the
// aggregate throughput, and how long the sweep took.
func (s *SweepScope) finalLine() string {
	done := s.done.Load()
	elapsed := time.Since(s.start)
	pct := int64(100)
	if s.total > 0 {
		pct = done * 100 / int64(s.total)
	}
	line := fmt.Sprintf("%s · job %d/%d · %d%% · %d workers", s.name, done, s.total, pct, s.workers)
	if done > 0 && elapsed > 0 {
		line += fmt.Sprintf(" · %s jobs/s", formatRate(float64(done)/elapsed.Seconds()))
	}
	line += fmt.Sprintf(" · done in %s", formatETA(elapsed))
	if errs := s.errs.Load(); errs > 0 {
		line += fmt.Sprintf(" · %d failed", errs)
	}
	return line
}

// progressLine renders the live status: name, completion, throughput
// and the ETA extrapolated from progress so far.
func (s *SweepScope) progressLine() string {
	done := s.done.Load()
	elapsed := time.Since(s.start)
	line := fmt.Sprintf("%s · job %d/%d · %d workers", s.name, done, s.total, s.workers)
	if done > 0 && elapsed > 0 {
		rate := float64(done) / elapsed.Seconds()
		eta := time.Duration(float64(s.total-int(done)) / rate * float64(time.Second))
		line += fmt.Sprintf(" · %s jobs/s · ETA %s", formatRate(rate), formatETA(eta))
	}
	if errs := s.errs.Load(); errs > 0 {
		line += fmt.Sprintf(" · %d failed", errs)
	}
	return line
}
