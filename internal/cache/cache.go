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

import "fmt"

// LineSize is the line size in bytes of every modeled cache.
const LineSize = 64

// Config describes one cache.
type Config struct {
	Name       string
	Sets       int // power of two
	Ways       int
	HitLatency int // cycles for a hit at this level
}

type line struct {
	// epoch stamps the FlushAll generation the line was filled under; a
	// line is live iff its epoch matches the cache's. 0 means invalid,
	// so flashing a single line means zeroing its epoch and flushing
	// everything means bumping the cache's — no eager sweep either way.
	epoch uint64
	tag   uint64
	lru   uint64 // higher = more recently used
}

// Cache is one level of set-associative cache. It stores only presence
// metadata (tags), not data — the simulator reads data through physical
// memory; the cache determines latency and observability.
type Cache struct {
	cfg        Config
	sets       [][]line
	useCounter uint64
	// epoch is the current FlushAll generation (starts at 1 so the zero
	// line value is never live). Experiments flush entire hierarchies
	// between trials; bumping a counter replaces sweeping every set.
	epoch uint64

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
	c := &Cache{cfg: cfg}
	// One backing array carved into per-set slices: experiment sweeps
	// construct whole machines per configuration, and Sets separate
	// allocations per cache dominated their setup cost.
	backing := make([]line, cfg.Sets*cfg.Ways)
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.Reset()
	return c
}

// Reset empties the cache and zeroes its statistics, keeping its
// allocations: the state New returns. The epoch only counts forward, so
// every line filled before the reset is dead (the first Reset, from
// New, moves it to 1, which the zero line value never matches).
func (c *Cache) Reset() {
	c.epoch++
	c.useCounter = 0
	c.ResetStats()
}

// SetIndex returns the set index for an address.
func (c *Cache) SetIndex(addr uint64) int {
	return int(addr/LineSize) & (c.cfg.Sets - 1)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr / LineSize / uint64(c.cfg.Sets)
}

// Present reports whether the line containing addr is cached, without
// touching replacement state (an "oracle peek" for tests and diagnostics).
func (c *Cache) Present(addr uint64) bool {
	set := c.sets[c.SetIndex(addr)]
	tag := c.tagOf(addr)
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
// would.
func (c *Cache) Access(addr uint64) (hit bool, evictedTag uint64, evicted bool) {
	si := c.SetIndex(addr)
	set := c.sets[si]
	tag := c.tagOf(addr)
	c.useCounter++
	for i := range set {
		if set[i].epoch == c.epoch && set[i].tag == tag {
			c.Hits++
			set[i].lru = c.useCounter
			return true, 0, false
		}
	}
	c.Misses++
	// Fill: choose victim.
	victim := -1
	for i := range set {
		if set[i].epoch != c.epoch {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = lruWay(set)
		c.Evictions++
		evictedTag = (set[victim].tag*uint64(c.cfg.Sets) + uint64(si)) * LineSize
		evicted = true
	}
	set[victim] = line{epoch: c.epoch, tag: tag, lru: c.useCounter}
	return false, evictedTag, evicted
}

// lruWay picks the least recently used way of a full set.
func lruWay(set []line) int {
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	return victim
}

// Flush removes the line containing addr if present (clflush).
func (c *Cache) Flush(addr uint64) {
	set := c.sets[c.SetIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].epoch == c.epoch && set[i].tag == tag {
			set[i] = line{}
			c.Flushes++
		}
	}
}

// FlushAll invalidates every line by advancing the epoch — O(1), which
// matters because experiments flush whole hierarchies between trials.
func (c *Cache) FlushAll() {
	c.epoch++
	c.Flushes++
}

// ValidLines returns the number of valid lines in set si.
func (c *Cache) ValidLines(si int) int {
	n := 0
	for _, l := range c.sets[si] {
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
