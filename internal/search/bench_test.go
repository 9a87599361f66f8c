package search

import (
	"context"
	"testing"
)

// BenchmarkSearch_Zen2 is one search.Run on zen2 at seed 3 and budget
// 2000, the unit of the benchmark's search workload: about ten
// instructions per leg, so machine setup and the leg digests, not the
// interpreter, set its cost (`make bench-search`).
func BenchmarkSearch_Zen2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), Options{Arch: "zen2", Seed: 3, Budget: 2000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Anomalous), "anomalous")
	}
}
