package cache

import (
	"math/rand"
	"testing"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "b", Sets: 64, Ways: 8, HitLatency: 4})
	c.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

func BenchmarkAccessMissEvict(b *testing.B) {
	c := New(Config{Name: "b", Sets: 64, Ways: 8, HitLatency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 4096) // same set, always missing
	}
}

// BenchmarkAccessWorkingSet replays random accesses over ten lines per
// set of an 8-way cache, so hits land on every way and a fifth of the
// accesses evict: the mix attack loops put on L1 and the µop cache.
func BenchmarkAccessWorkingSet(b *testing.B) {
	c := New(Config{Name: "b", Sets: 64, Ways: 8, HitLatency: 4})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(64*10)) * LineSize
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)])
	}
}
