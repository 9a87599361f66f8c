package service

import (
	"container/list"
	"sync"
)

// cacheOverhead approximates the per-entry bookkeeping cost (list
// element, map slot, Result struct) charged against the byte budget on
// top of the payload, so a flood of tiny results cannot grow the cache
// unboundedly while nominally under budget.
const cacheOverhead = 256

// Cache is the content-addressed result store: hex SHA-256 request key
// → rendered Result, with LRU eviction under a byte budget. Because the
// simulator is deterministic, an entry never goes stale — eviction
// exists only to bound memory, so recency is the right victim order.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions uint64
}

// cacheEntry is one resident result plus its charged size.
type cacheEntry struct {
	key  string
	res  *Result
	size int64
}

// NewCache returns a cache bounded to roughly budget bytes of result
// payload. A budget <= 0 disables storage entirely (every Get misses,
// every Put is dropped) rather than meaning "unbounded": an unbounded
// result store in a long-running server is the bug this type exists to
// prevent.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// Get returns the cached result for key and whether it was present,
// promoting the entry to most recently used on a hit. The returned
// Result is shared — callers must treat it as immutable and copy before
// tagging response-specific fields (Cached, Coalesced).
func (c *Cache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// peek is Get without side effects: it counts neither a hit nor a miss
// and leaves recency alone.
func (c *Cache) peek(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting least-recently-used entries until
// the budget holds. A result larger than the whole budget is not stored
// (it would immediately evict everything for one entry no second
// request may ever want). Re-putting an existing key refreshes recency
// but keeps the resident entry: results are content-addressed, so both
// values are identical by construction.
func (c *Cache) Put(key string, res *Result) {
	size := int64(len(res.Output)+len(key)) + cacheOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	for c.used+size > c.budget {
		c.evictOldest()
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, size: size})
	c.used += size
}

// evictOldest drops the least-recently-used entry. Caller holds mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.size
	c.evictions++
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int
	UsedBytes int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.items),
		UsedBytes: c.used,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
