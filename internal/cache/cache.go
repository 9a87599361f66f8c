// Package cache models set-associative caches with pluggable replacement
// policies and indexing schemes. The same structure instantiates the L1
// instruction cache, L1 data cache, shared L2 and the µop cache of the
// simulated machines.
//
// These caches carry all of Phantom's observation channels: transient
// fetch is observed through I-cache state (Prime+Probe / timing), transient
// decode through µop-cache hit/miss counters, and transient execution
// through D-cache state (Prime+Probe on L2, Flush+Reload on shared
// memory) — Figure 3 of the paper.
package cache

import (
	"fmt"
	"math/rand"
)

// ReplacementPolicy selects the victim way on a fill into a full set.
type ReplacementPolicy uint8

// Replacement policies.
const (
	LRU ReplacementPolicy = iota
	TreePLRU
	Random
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TreePLRU:
		return "plru"
	case Random:
		return "random"
	}
	return "policy?"
}

// Indexing selects which address bits pick the set.
type Indexing uint8

// Indexing schemes.
const (
	// PhysIndex uses the physical address (typical L2/LLC).
	PhysIndex Indexing = iota
	// VirtIndex uses the virtual address (µop cache; VIPT L1 behaves
	// identically for 32 KiB/8-way geometries since index bits sit inside
	// the page offset).
	VirtIndex
)

// Config describes one cache.
type Config struct {
	Name       string
	Sets       int // power of two
	Ways       int
	LineSize   int // power of two, bytes
	HitLatency int // cycles for a hit at this level
	Repl       ReplacementPolicy
	Index      Indexing
}

// Lines returns the capacity in lines.
func (c Config) Lines() int { return c.Sets * c.Ways }

// SizeBytes returns the capacity in bytes.
func (c Config) SizeBytes() int { return c.Lines() * c.LineSize }

func (c Config) String() string {
	return fmt.Sprintf("%s: %d KiB, %d sets x %d ways x %dB, %s",
		c.Name, c.SizeBytes()/1024, c.Sets, c.Ways, c.LineSize, c.Repl)
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
	plru       []uint64 // tree-PLRU state per set (bits of the tree)
	rng        *rand.Rand
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

// New returns an empty cache. rng is used by the Random policy (and may be
// nil for other policies).
func New(cfg Config, rng *rand.Rand) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.Sets == 0 {
		panic(fmt.Sprintf("cache %s: sets %d not a power of two", cfg.Name, cfg.Sets))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 || cfg.LineSize == 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	c := &Cache{cfg: cfg, rng: rng}
	// One backing array carved into per-set slices: experiment sweeps
	// construct whole machines per configuration, and Sets separate
	// allocations per cache dominated their setup cost.
	backing := make([]line, cfg.Sets*cfg.Ways)
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.plru = make([]uint64, cfg.Sets)
	c.Reset()
	return c
}

// Reset empties the cache and zeroes its statistics, keeping its
// allocations: the state New returns. The epoch only counts forward, so
// every line filled before the reset is dead (the first Reset, from
// New, moves it to 1, which the zero line value never matches).
func (c *Cache) Reset() {
	c.epoch++
	clear(c.plru)
	c.useCounter = 0
	c.ResetStats()
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetIndex returns the set index for an address (virtual or physical
// according to the indexing scheme; the caller passes the right one).
func (c *Cache) SetIndex(addr uint64) int {
	return int(addr/uint64(c.cfg.LineSize)) & (c.cfg.Sets - 1)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr / uint64(c.cfg.LineSize) / uint64(c.cfg.Sets)
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
			c.touchPLRU(si, i)
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
		victim = c.victimWay(si)
		c.Evictions++
		evictedTag = set[victim].tag*uint64(c.cfg.Sets)*uint64(c.cfg.LineSize) +
			uint64(si)*uint64(c.cfg.LineSize)
		evicted = true
	}
	set[victim] = line{epoch: c.epoch, tag: tag, lru: c.useCounter}
	c.touchPLRU(si, victim)
	return false, evictedTag, evicted
}

// victimWay picks a way to evict in a full set.
func (c *Cache) victimWay(si int) int {
	set := c.sets[si]
	switch c.cfg.Repl {
	case Random:
		return c.rng.Intn(c.cfg.Ways)
	case TreePLRU:
		return c.plruVictim(si)
	default: // LRU
		victim := 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		return victim
	}
}

// Tree-PLRU over Ways leaves (Ways must be a power of two for the tree;
// non-power-of-two ways fall back to LRU).
func (c *Cache) plruVictim(si int) int {
	w := c.cfg.Ways
	if w&(w-1) != 0 {
		set := c.sets[si]
		victim := 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		return victim
	}
	state := c.plru[si]
	node := 1
	for node < w {
		bit := (state >> uint(node)) & 1
		node = node*2 + int(bit)
	}
	return node - w
}

func (c *Cache) touchPLRU(si, way int) {
	w := c.cfg.Ways
	if c.cfg.Repl != TreePLRU || w&(w-1) != 0 {
		return
	}
	state := c.plru[si]
	node := way + w
	for node > 1 {
		parent := node / 2
		// Point the parent away from the touched child.
		if node%2 == 0 {
			state |= 1 << uint(parent)
		} else {
			state &^= 1 << uint(parent)
		}
		node = parent
	}
	c.plru[si] = state
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

// FlushSet invalidates one set by index (used by harnesses to create a
// clean probe baseline).
func (c *Cache) FlushSet(si int) {
	for i := range c.sets[si] {
		c.sets[si][i] = line{}
	}
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

// OccupiedWays returns how many ways of set si hold lines whose address
// tag differs from those derivable from the given addresses — i.e., lines
// an attacker's priming of that set did NOT install. Harness/diagnostic
// helper for Prime+Probe reasoning in tests.
func (c *Cache) OccupiedWays(si int, primed []uint64) int {
	primedTags := make(map[uint64]bool, len(primed))
	for _, a := range primed {
		if c.SetIndex(a) == si {
			primedTags[c.tagOf(a)] = true
		}
	}
	n := 0
	for _, l := range c.sets[si] {
		if l.epoch == c.epoch && !primedTags[l.tag] {
			n++
		}
	}
	return n
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.Flushes = 0, 0, 0, 0
}
