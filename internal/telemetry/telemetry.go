// Package telemetry is the harness observability layer: a sharded,
// allocation-free metrics registry (counters, gauges, bounded latency
// histograms), a JSONL run log, a live sweep progress line, and an
// optional pprof/metrics debug server.
//
// The package exists to watch the *harness* — worker pools, job
// latencies, interpreter throughput — and is strictly distinct from the
// modeled pipeline.PerfCounters an attacker may sample. Its hard
// invariant mirrors the paper's Section 5.1 discipline (a counter may
// observe, never perturb): nothing in this package charges modeled
// cycles, touches a modeled structure, or consumes the simulation's
// RNG, so every experiment renders byte-identical output with telemetry
// enabled or disabled. Test*TelemetryParity pins that.
//
// Usage: the process opts in with Enable (the phantom CLI does this for
// -metrics / -progress / -debug-addr) and instrumented code asks the
// active hub for pre-registered metric handles. When no hub is active
// every handle is nil and every record path is a nil-check — the
// disabled harness pays nothing.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// NumShards is the counter shard fan-out. Writers pick a shard (sweep
// workers use their worker index, machines get one at boot) so parallel
// sweeps do not serialize on one cache line. Must be a power of two.
const NumShards = 16

// shardPad pads each shard to its own cache line.
type shardPad struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, sharded event count. The nil
// Counter is valid and records nothing, so instrumentation sites need no
// enabled/disabled branch of their own.
type Counter struct {
	name   string
	shards [NumShards]shardPad
}

// Add adds n to the counter on the given shard.
func (c *Counter) Add(shard int, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.shards[shard&(NumShards-1)].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc(shard int) {
	if c == nil {
		return
	}
	c.shards[shard&(NumShards-1)].v.Add(1)
}

// Value sums all shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous signed level (queue depth, busy workers).
// The nil Gauge is valid and records nothing.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the level by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histMaxBuckets bounds every histogram: 1ns..~1s in powers of four,
// plus an overflow bucket. Fixed bounds keep Observe allocation-free
// and the snapshot size constant however long a sweep runs.
const histMaxBuckets = 16

// histBucket returns the bucket index for a value: floor(log4(v)),
// clamped to the overflow bucket.
func histBucket(v uint64) int {
	b := 0
	for v > 0 && b < histMaxBuckets-1 {
		v >>= 2
		b++
	}
	return b
}

// histBound is the inclusive upper bound of bucket i (4^i-1: bucket 0
// holds only zero, bucket 1 holds 1..3, bucket 2 holds 4..15, ...),
// used only for rendering snapshots.
func histBound(i int) uint64 {
	if i >= histMaxBuckets-1 {
		return ^uint64(0)
	}
	return 1<<(2*uint(i)) - 1
}

// Histogram is a bounded, sharded latency histogram over power-of-four
// buckets. Values are whatever unit the caller observes (the sweep
// observer records nanoseconds). The nil Histogram is valid and records
// nothing.
type Histogram struct {
	name    string
	count   Counter
	sum     Counter
	buckets [histMaxBuckets]Counter
}

// Observe records one value on the given shard.
func (h *Histogram) Observe(shard int, v uint64) {
	if h == nil {
		return
	}
	h.count.Inc(shard)
	h.sum.Add(shard, v)
	h.buckets[histBucket(v)].Inc(shard)
}

// HistogramSnapshot is the JSON-friendly view of a Histogram. Buckets
// maps the inclusive upper bound to the count of observations at or
// under it (empty buckets are omitted; the overflow bound renders as
// "inf").
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Value(), Sum: h.sum.Value()}
	for i := range h.buckets {
		if n := h.buckets[i].Value(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[string]uint64)
			}
			s.Buckets[histBoundLabel(i)] = n
		}
	}
	return s
}

func histBoundLabel(i int) string {
	if i >= histMaxBuckets-1 {
		return "inf"
	}
	return itoa(histBound(i))
}

// itoa is strconv.FormatUint without the import weight, for bucket
// labels only.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Registry holds named metrics. Registration (the Counter/Gauge/
// Histogram lookups) takes a mutex and may allocate; the returned
// handles record lock-free and allocation-free. All methods are safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns the nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric, with deterministic
// (sorted) JSON encoding via ordinary map marshaling.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current values of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}
