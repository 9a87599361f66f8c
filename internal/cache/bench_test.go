package cache

import "testing"

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
