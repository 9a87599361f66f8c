package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"phantom/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of that layer. Parent is the ID of the
// span that caused it, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out once the run ends.
// It is safe for concurrent use by sweep workers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now, EndNS: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return t.spans[id].dur()
}

// add records a span whose name is known only once it has ended (a
// served request's class depends on the reply).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
	})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations, in milliseconds, of every span named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// children may overlap one another (parallel sweep jobs under one
// unit), so the covered part is the length of the union of their
// intervals, clipped to the parent's. Rows come back by self time,
// largest first.
func selfTimes(spans []span) []layerRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.dur()
		r.Count++
		r.TotalMS += float64(d) / float64(time.Millisecond)
		r.SelfMS += float64(d-covered(s, children[s.ID])) / float64(time.Millisecond)
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// simCounts are the interpreter tallies the telemetry hub aggregates
// over every simulated machine: deterministic for a given input, so a
// simulator-speed change must leave them identical.
type simCounts struct {
	Machines                 uint64 // pipeline.New calls, kernel boots included
	Instructions, Cycles     uint64
	Resteers                 uint64
	PredecodeHits, Predecode uint64 // hits, and all predecode probes
}

// hubCounts reads the active hub's pipeline counters (zero when
// telemetry is off).
func hubCounts() simCounts {
	c := telemetry.Active().Registry().Snapshot().Counters
	return simCounts{
		Machines:      c["pipeline_boots"],
		Instructions:  c["pipeline_instructions"],
		Cycles:        c["pipeline_sim_cycles"],
		Resteers:      c["pipeline_frontend_resteers"] + c["pipeline_backend_resteers"],
		PredecodeHits: c["pipeline_predecode_hits"],
		Predecode:     c["pipeline_predecode_hits"] + c["pipeline_predecode_misses"],
	}
}

func (c simCounts) sub(b simCounts) simCounts {
	return simCounts{
		Machines:      c.Machines - b.Machines,
		Instructions:  c.Instructions - b.Instructions,
		Cycles:        c.Cycles - b.Cycles,
		Resteers:      c.Resteers - b.Resteers,
		PredecodeHits: c.PredecodeHits - b.PredecodeHits,
		Predecode:     c.Predecode - b.Predecode,
	}
}

// sweepLog is one sweep.Run as the telemetry run log records it: the
// pool size and each job's worker and duration, in completion order.
type sweepLog struct {
	Name    string
	Workers int
	Jobs    []sweepJob
}

type sweepJob struct {
	Worker int
	MS     float64
}

// parseRunLog extracts the sweeps from a telemetry JSONL run log.
// Sweeps of different names may interleave; a name's records are
// grouped between its sweep_start and sweep_end.
func parseRunLog(data []byte) ([]sweepLog, error) {
	var out []sweepLog
	open := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r struct {
			Type    string  `json:"type"`
			Sweep   string  `json:"sweep"`
			Workers int     `json:"workers"`
			Worker  int     `json:"worker"`
			MS      float64 `json:"ms"`
			Err     string  `json:"err"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("run log: %w", err)
		}
		switch r.Type {
		case "sweep_start":
			open[r.Sweep] = len(out)
			out = append(out, sweepLog{Name: r.Sweep, Workers: r.Workers})
		case "job":
			i, ok := open[r.Sweep]
			if !ok {
				return nil, fmt.Errorf("run log: job of unopened sweep %q", r.Sweep)
			}
			if r.Err != "" {
				return nil, fmt.Errorf("run log: sweep %q job failed: %s", r.Sweep, r.Err)
			}
			out[i].Jobs = append(out[i].Jobs, sweepJob{Worker: r.Worker, MS: r.MS})
		case "sweep_end":
			delete(open, r.Sweep)
		}
	}
	return out, sc.Err()
}

// sweepStats derives the sweep layer's metrics from job records alone.
// Workers take jobs back to back from sweep start, so a job's queue
// wait is the summed duration of the jobs its worker ran before it; a
// sweep's makespan is its busiest worker's total; the straggler time is
// how long that worker ran on after the least busy one had finished.
func sweepStats(logs []sweepLog) (jobMS []float64, waitMS, busyPct, stragglerMS float64, workers int) {
	var waitSum, busy, capacity, straggle float64
	sweeps := 0
	for _, l := range logs {
		if len(l.Jobs) == 0 || l.Workers == 0 {
			continue
		}
		sweeps++
		workers = max(workers, l.Workers)
		per := make([]float64, l.Workers)
		for _, j := range l.Jobs {
			w := j.Worker % l.Workers
			waitSum += per[w]
			per[w] += j.MS
			busy += j.MS
			jobMS = append(jobMS, j.MS)
		}
		lo, hi := per[0], per[0]
		for _, b := range per {
			lo, hi = min(lo, b), max(hi, b)
		}
		capacity += hi * float64(l.Workers)
		straggle += hi - lo
	}
	if len(jobMS) == 0 {
		return nil, 0, 0, 0, 0
	}
	return jobMS, waitSum / float64(len(jobMS)), 100 * busy / capacity, straggle / float64(sweeps), workers
}
