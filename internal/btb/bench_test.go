package btb

import (
	"testing"

	"phantom/internal/isa"
)

// sink keeps benchmarked results live.
var sink uint64

func BenchmarkLookupHit(b *testing.B) {
	bt := New(NewZen34Scheme("bench"), 2)
	bt.Update(0x400000, false, isa.BrJmpInd, 0x500000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Lookup(0x400000, false)
	}
}

// BenchmarkLookupMiss times a miss: a set store probe that finds no
// set, with nothing created or allocated.
func BenchmarkLookupMiss(b *testing.B) {
	bt := New(NewZen34Scheme("bench"), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Lookup(uint64(i)<<12, false)
	}
}

func benchSchemes() []*Scheme {
	return []*Scheme{NewZen12Scheme("zen2"), NewZen34Scheme("zen3"), NewIntelScheme("intel")}
}

func BenchmarkSchemeIndex(b *testing.B) {
	for _, s := range benchSchemes() {
		b.Run(s.SchemeName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink ^= uint64(s.Index(uint64(i) * 0x1357))
			}
		})
	}
}

func BenchmarkSchemeTag(b *testing.B) {
	for _, s := range benchSchemes() {
		b.Run(s.SchemeName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink ^= s.Tag(uint64(i)*0x1357, i&1 == 0)
			}
		})
	}
}
