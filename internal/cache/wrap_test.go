package cache

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refCache is the cache model with a 64-bit use counter, which never
// wraps in a test, and no epoch: a full flush clears every way. A way is
// live while its last use is nonzero; a fill takes the first invalid way,
// else the least recently used one.
type refCache struct {
	sets, ways int
	tag        [][]uint64
	used       [][]uint64 // 0 = invalid
	clock      uint64
	hits       uint64
	misses     uint64
	evictions  uint64
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{sets: sets, ways: ways, tag: make([][]uint64, sets), used: make([][]uint64, sets)}
	for i := range r.tag {
		r.tag[i] = make([]uint64, ways)
		r.used[i] = make([]uint64, ways)
	}
	return r
}

func (r *refCache) split(addr uint64) (int, uint64) {
	line := addr / LineSize
	return int(line % uint64(r.sets)), line / uint64(r.sets)
}

func (r *refCache) access(addr uint64) (bool, uint64, bool) {
	si, tag := r.split(addr)
	r.clock++
	for i, u := range r.used[si] {
		if u != 0 && r.tag[si][i] == tag {
			r.hits++
			r.used[si][i] = r.clock
			return true, 0, false
		}
	}
	r.misses++
	victim, evicted, evictedTag := -1, false, uint64(0)
	for i, u := range r.used[si] {
		if u == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i, u := range r.used[si] {
			if u < r.used[si][victim] {
				victim = i
			}
		}
		r.evictions++
		evicted = true
		evictedTag = (r.tag[si][victim]*uint64(r.sets) + uint64(si)) * LineSize
	}
	r.tag[si][victim], r.used[si][victim] = tag, r.clock
	return false, evictedTag, evicted
}

func (r *refCache) present(addr uint64) bool {
	si, tag := r.split(addr)
	for i, u := range r.used[si] {
		if u != 0 && r.tag[si][i] == tag {
			return true
		}
	}
	return false
}

func (r *refCache) flush(addr uint64) {
	si, tag := r.split(addr)
	for i, u := range r.used[si] {
		if u != 0 && r.tag[si][i] == tag {
			r.used[si][i] = 0
		}
	}
}

func (r *refCache) flushAll() {
	for _, u := range r.used {
		clear(u)
	}
}

// TestWrapGuardsMatchReference runs random accesses and flushes on a
// cache whose use counter and epoch are moved up to just below 2^32, so
// both wrap again and again, and on the 64-bit reference. Every hit,
// eviction, evicted address, presence and statistic must agree. The
// lines filled before the epoch first wraps carry epoch 1, the value it
// restarts at, and addresses with tag 0 match a zeroed line, so a wrap
// that cleared nothing or restarted at 0 would show.
func TestWrapGuardsMatchReference(t *testing.T) {
	const sets, ways = 4, 4
	rng := rand.New(rand.NewSource(1))
	c, ref := New(testConfig(sets, ways)), newRefCache(sets, ways)
	addr := func() uint64 { return uint64(rng.Intn(sets*ways*3)) * LineSize }
	flushAll := func() {
		c.FlushAll()
		ref.flushAll()
	}
	step := func(i int, flushes bool) {
		t.Helper()
		a := addr()
		switch r := rng.Intn(100); {
		case r < 2 && flushes:
			flushAll()
		case r < 10:
			c.Flush(a)
			ref.flush(a)
		default:
			gh, gt, ge := c.Access(a)
			wh, wt, we := ref.access(a)
			if gh != wh || gt != wt || ge != we {
				t.Fatalf("access %d (%#x, use counter %d, epoch %d): cache (%v %#x %v), reference (%v %#x %v)",
					i, a, c.useCounter, c.epoch, gh, gt, ge, wh, wt, we)
			}
		}
		if b := addr(); c.Present(b) != ref.present(b) {
			t.Fatalf("step %d (epoch %d): Present(%#x) = %v, reference says %v", i, c.epoch, b, c.Present(b), ref.present(b))
		}
	}
	for i := 0; i < 200; i++ {
		step(i, false)
	}
	// Every line is dead after a full flush, so moving the epoch up kills
	// nothing more; the next full flush wraps it.
	flushAll()
	c.epoch = math.MaxUint32
	flushAll()
	for round := 0; round < 50; round++ {
		// The use counter only grows here, so every live line keeps its
		// place in its set's LRU order.
		c.useCounter = max(c.useCounter, math.MaxUint32-uint32(rng.Intn(64)))
		if round%5 == 4 {
			flushAll()
			c.epoch = max(c.epoch, math.MaxUint32-uint32(rng.Intn(3)))
		}
		for i := 0; i < 400; i++ {
			step(i, true)
		}
	}
	if c.Hits != ref.hits || c.Misses != ref.misses || c.Evictions != ref.evictions {
		t.Fatalf("stats: hits %d misses %d evictions %d, reference %d %d %d",
			c.Hits, c.Misses, c.Evictions, ref.hits, ref.misses, ref.evictions)
	}
}

// TestLineSize pins the 16-byte line: a field added to it grows every
// modeled cache by half again.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("cache line metadata is %d bytes, want 16", n)
	}
}
