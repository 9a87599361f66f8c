package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig(sets, ways int) Config {
	return Config{Name: "t", Sets: sets, Ways: ways, HitLatency: 4}
}

func TestAccessHitAfterFill(t *testing.T) {
	c := New(testConfig(64, 8))
	if hit, _, _ := c.Access(0x1000); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x1000); !hit {
		t.Fatal("warm access missed")
	}
	if hit, _, _ := c.Access(0x103f); !hit {
		t.Fatal("same-line access missed")
	}
	if hit, _, _ := c.Access(0x1040); hit {
		t.Fatal("next-line access hit")
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := New(testConfig(64, 8))
	// Addresses 4096 apart with 64 sets x 64B lines map to the same set.
	if c.SetIndex(0xac0) != c.SetIndex(0xac0+4096) {
		t.Fatal("4096-stride addresses in different sets")
	}
	if c.SetIndex(0xac0) == c.SetIndex(0xb00) {
		t.Fatal("different offsets share a set unexpectedly")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(testConfig(1, 2))
	c.Access(0x0)  // fill way 0
	c.Access(0x40) // fill way 1
	c.Access(0x0)  // touch 0x0 -> 0x40 is LRU
	_, _, evicted := c.Access(0x80)
	if !evicted {
		t.Fatal("full set fill did not evict")
	}
	if !c.Present(0x0) {
		t.Fatal("MRU line evicted")
	}
	if c.Present(0x40) {
		t.Fatal("LRU line survived")
	}
}

func TestEvictedTagReconstruction(t *testing.T) {
	c := New(testConfig(4, 1))
	c.Access(0x1040)               // set 1
	_, tag, ev := c.Access(0x2040) // same set, different tag
	if !ev {
		t.Fatal("no eviction")
	}
	if c.SetIndex(tag) != c.SetIndex(0x1040) || tag/256 != 0x1040/256 {
		t.Fatalf("reconstructed evicted address %#x not equivalent to %#x", tag, 0x1040)
	}
}

func TestFlush(t *testing.T) {
	c := New(testConfig(64, 8))
	c.Access(0x1000)
	c.Flush(0x1000)
	if c.Present(0x1000) {
		t.Fatal("line present after Flush")
	}
	c.Access(0x1000)
	c.FlushAll()
	if c.Present(0x1000) {
		t.Fatal("line present after FlushAll")
	}
}

func TestPrimeProbeSemantics(t *testing.T) {
	// Prime a set with exactly Ways lines; a foreign fill must evict one.
	cfg := testConfig(64, 8)
	c := New(cfg)
	set := c.SetIndex(0xac0)
	var primed []uint64
	for i := 0; i < cfg.Ways; i++ {
		addr := uint64(0xac0) + uint64(i+1)*4096
		if c.SetIndex(addr) != set {
			t.Fatal("prime address in wrong set")
		}
		c.Access(addr)
		primed = append(primed, addr)
	}
	if c.ValidLines(set) != cfg.Ways {
		t.Fatalf("primed set has %d lines", c.ValidLines(set))
	}
	// Victim access to the same set.
	victim := uint64(0xac0) + 100*4096
	c.Access(victim)
	misses := 0
	for _, a := range primed {
		if hit, _, _ := c.Access(a); !hit {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("victim fill left all primed lines intact")
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(testConfig(64, 8))
	c.Access(0x1000)
	c.Access(0x1000)
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("ResetStats did not zero")
	}
}

func TestCacheInvariantsProperty(t *testing.T) {
	// Property: a set never holds more than Ways lines and Present
	// agrees with a just-completed Access.
	cfg := testConfig(16, 4)
	c := New(cfg)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := uint64(a)
			c.Access(addr)
			if !c.Present(addr) {
				return false
			}
			if c.ValidLines(c.SetIndex(addr)) > cfg.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := &Hierarchy{
		L1I:        New(Config{Name: "L1I", Sets: 64, Ways: 8, HitLatency: 4}),
		L1D:        New(Config{Name: "L1D", Sets: 64, Ways: 8, HitLatency: 4}),
		L2:         New(Config{Name: "L2", Sets: 1024, Ways: 8, HitLatency: 14}),
		MemLatency: 150,
	}
	// Cold: full miss.
	if lat := h.AccessData(0x1000); lat != 4+14+150 {
		t.Fatalf("cold load latency = %d", lat)
	}
	// Warm L1.
	if lat := h.AccessData(0x1000); lat != 4 {
		t.Fatalf("L1 hit latency = %d", lat)
	}
	// Flush L1 only: L2 hit.
	h.L1D.Flush(0x1000)
	if lat := h.AccessData(0x1000); lat != 4+14 {
		t.Fatalf("L2 hit latency = %d", lat)
	}
	// Fetch side shares L2: after an instruction fetch of the same line,
	// the L2 was already filled by the data path.
	if lat := h.AccessFetch(0x1000); lat != 4+14 {
		t.Fatalf("fetch after data L2 fill = %d", lat)
	}
	h.FlushLine(0x1000)
	if lat := h.AccessFetch(0x1000); lat != 4+14+150 {
		t.Fatalf("fetch after FlushLine = %d", lat)
	}
	h.FlushAll()
	if h.L1I.Present(0x1000) || h.L1D.Present(0x1000) || h.L2.Present(0x1000) {
		t.Fatal("FlushAll left lines")
	}
}

// TestResetMatchesNew: a used cache, once Reset, answers an access
// sequence exactly as a new one does, replacement decisions and
// statistics included.
func TestResetMatchesNew(t *testing.T) {
	cfg := testConfig(4, 4)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 300)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(64)) * 64
	}
	used := New(cfg)
	for _, a := range addrs {
		used.Access(a)
	}
	used.Flush(addrs[0])
	used.Reset()
	fresh := New(cfg)
	for i, a := range addrs {
		gh, gt, ge := used.Access(a)
		wh, wt, we := fresh.Access(a)
		if gh != wh || gt != wt || ge != we {
			t.Fatalf("access %d (%#x): reset cache (%v %#x %v), new cache (%v %#x %v)",
				i, a, gh, gt, ge, wh, wt, we)
		}
	}
	if used.Hits != fresh.Hits || used.Misses != fresh.Misses ||
		used.Evictions != fresh.Evictions || used.Flushes != fresh.Flushes {
		t.Fatal("stats differ after reset")
	}
}
