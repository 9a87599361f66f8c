// Package cache models set-associative LRU caches. The same structure
// instantiates the L1 instruction cache, L1 data cache, shared L2 and the
// µop cache of the simulated machines. A cache indexes by whatever
// address its caller passes: the pipeline hands the µop cache a virtual
// address and every other level a physical one.
//
// These caches carry all of Phantom's observation channels: transient
// fetch is observed through I-cache state (Prime+Probe / timing), transient
// decode through µop-cache hit/miss counters, and transient execution
// through D-cache state (Prime+Probe on L2, Flush+Reload on shared
// memory) — Figure 3 of the paper.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// LineSize is the line size in bytes of every modeled cache.
const LineSize = 1 << lineShift

// lineShift is log2(LineSize).
const lineShift = 6

// Config describes one cache.
type Config struct {
	Name       string
	Sets       int // power of two
	Ways       int
	HitLatency int // cycles for a hit at this level
}

// line is one way's presence metadata, 16 bytes.
type line struct {
	tag uint64
	// lru is the use counter's value at the line's last use: higher =
	// more recently used. Live lines of one set never share a value.
	lru uint32
	// epoch stamps the FlushAll generation the line was filled under; a
	// line is live iff its epoch matches the cache's. 0 means invalid,
	// so flushing a single line means zeroing it and flushing everything
	// means bumping the cache's epoch — no eager sweep either way.
	epoch uint32
}

// Cache is one level of set-associative cache. It stores only presence
// metadata (tags), not data — the simulator reads data through physical
// memory; the cache determines latency and observability.
type Cache struct {
	cfg Config
	// lines holds every set's ways in one array: set si is
	// lines[si*Ways : (si+1)*Ways]. Experiment sweeps construct whole
	// machines per configuration, and Sets separate allocations per
	// cache dominated their setup cost.
	lines []line
	// tagShift is log2(LineSize*Sets): an address's tag is
	// addr >> tagShift.
	tagShift uint
	// useCounter stamps each access; when it would wrap, tick renumbers
	// the live lines first (see renumber).
	useCounter uint32
	// epoch is the current FlushAll generation (starts at 1 so the zero
	// line value is never live). Experiments flush entire hierarchies
	// between trials; bumping a counter replaces sweeping every set,
	// except once every 2^32 flushes, when it wraps (see nextEpoch).
	epoch uint32

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.Sets == 0 {
		panic(fmt.Sprintf("cache %s: sets %d not a power of two", cfg.Name, cfg.Sets))
	}
	c := &Cache{
		cfg:      cfg,
		lines:    make([]line, cfg.Sets*cfg.Ways),
		tagShift: lineShift + uint(bits.TrailingZeros(uint(cfg.Sets))),
	}
	c.Reset()
	return c
}

// Reset empties the cache and zeroes its statistics, keeping its
// allocations: the state New returns. The epoch only counts forward, so
// every line filled before the reset is dead (the first Reset, from
// New, moves it to 1, which the zero line value never matches).
func (c *Cache) Reset() {
	c.nextEpoch()
	c.useCounter = 0
	c.ResetStats()
}

// nextEpoch moves to a new FlushAll generation, killing every line.
// When the epoch wraps it clears every line and restarts at 1, so no
// line stamped 2^32 generations ago comes back to life.
func (c *Cache) nextEpoch() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.lines)
		c.epoch = 1
	}
}

// tick advances the use counter for one access.
func (c *Cache) tick() {
	if c.useCounter == math.MaxUint32 {
		c.renumber()
	}
	c.useCounter++
}

// renumber gives each set's live lines the values 1..n in their LRU
// order and rewinds the use counter to Ways, above every new value, so
// no hit or victim choice changes when the counter wraps. It allocates
// nothing: the k-th pass takes the least value above the (k-1)-th
// smallest old value, and the k-th smallest of distinct positive values
// is at least k, so a line already renumbered never comes up again.
func (c *Cache) renumber() {
	for base := 0; base < len(c.lines); base += c.cfg.Ways {
		set := c.lines[base : base+c.cfg.Ways]
		prev := uint32(0)
		for k := uint32(1); ; k++ {
			next := -1
			for i := range set {
				if set[i].epoch == c.epoch && set[i].lru > prev && (next < 0 || set[i].lru < set[next].lru) {
					next = i
				}
			}
			if next < 0 {
				break
			}
			prev, set[next].lru = set[next].lru, k
		}
	}
	c.useCounter = uint32(c.cfg.Ways)
}

// SetIndex returns the set index for an address.
func (c *Cache) SetIndex(addr uint64) int {
	return int(addr>>lineShift) & (c.cfg.Sets - 1)
}

// set returns the ways of set si.
func (c *Cache) set(si int) []line {
	base := si * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways : base+c.cfg.Ways]
}

// Present reports whether the line containing addr is cached, without
// touching replacement state (an "oracle peek" for tests and diagnostics).
func (c *Cache) Present(addr uint64) bool {
	set := c.set(c.SetIndex(addr))
	tag := addr >> c.tagShift
	for i := range set {
		if set[i].epoch == c.epoch && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access looks up addr, filling on miss, and reports whether it hit and
// the physical address of any evicted line's tag (evicted=false when the
// fill used an invalid way). Replacement state updates as real hardware
// would: a fill takes the first invalid way, else the least recently
// used one. A hit costs one walk that compares tags only; a miss costs
// one more, which finds the first invalid way and the LRU way together.
// (Tracking the LRU way during the hit walk as well made every hit pay
// for it: BenchmarkAccessWorkingSet went from about 24 to 30 ns.)
func (c *Cache) Access(addr uint64) (hit bool, evictedTag uint64, evicted bool) {
	si := c.SetIndex(addr)
	set := c.set(si)
	tag := addr >> c.tagShift
	c.tick()
	epoch, now := c.epoch, c.useCounter
	for i := range set {
		if l := &set[i]; l.epoch == epoch && l.tag == tag {
			c.Hits++
			l.lru = now
			return true, 0, false
		}
	}
	// free is the first invalid way. lru packs the least recently used
	// way's lru value over its index, so min keeps the walk free of
	// data-dependent branches; it is read only when every way is live,
	// and live lines of a set never share an lru value.
	free, lru := -1, uint64(math.MaxUint64)
	for i := range set {
		l := &set[i]
		if l.epoch != epoch {
			free = i
			break
		}
		lru = min(lru, uint64(l.lru)<<32|uint64(i))
	}
	c.Misses++
	victim := free
	if victim < 0 {
		victim = int(uint32(lru))
		c.Evictions++
		evictedTag = set[victim].tag<<c.tagShift | uint64(si)<<lineShift
		evicted = true
	}
	set[victim] = line{tag: tag, lru: now, epoch: epoch}
	return false, evictedTag, evicted
}

// Flush removes the line containing addr if present (clflush).
func (c *Cache) Flush(addr uint64) {
	set := c.set(c.SetIndex(addr))
	tag := addr >> c.tagShift
	for i := range set {
		if set[i].epoch == c.epoch && set[i].tag == tag {
			set[i] = line{}
			c.Flushes++
			return // a set holds each tag at most once
		}
	}
}

// FlushAll invalidates every line by advancing the epoch — O(1), which
// matters because experiments flush whole hierarchies between trials.
func (c *Cache) FlushAll() {
	c.nextEpoch()
	c.Flushes++
}

// ValidLines returns the number of valid lines in set si.
func (c *Cache) ValidLines(si int) int {
	n := 0
	for _, l := range c.set(si) {
		if l.epoch == c.epoch {
			n++
		}
	}
	return n
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.Flushes = 0, 0, 0, 0
}
