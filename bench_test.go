package phantom

// The benchmark harness regenerates every table and figure of the paper's
// evaluation, one testing.B benchmark per artifact:
//
//	BenchmarkTable1_*       — the training×victim misprediction matrix
//	BenchmarkFig6_*         — the speculative-decode page-offset sweep
//	BenchmarkFig7_*         — BTB collision discovery and function recovery
//	BenchmarkTable2_*       — fetch / execute covert channels
//	BenchmarkTable3_*       — kernel image KASLR derandomization
//	BenchmarkTable4_*       — physmap KASLR derandomization
//	BenchmarkTable5_*       — physical-address derandomization
//	BenchmarkSec74_MDSLeak  — the MDS-gadget kernel memory leak
//	BenchmarkSec63_*        — the mitigation experiments
//	BenchmarkReport         — the whole report, end to end
//
// Each benchmark reports the paper-relevant quality metric alongside the
// wall time: accuracy (accuracy_pct), simulated attack time (sim_ms), and
// channel rate (sim_bits_per_s / sim_bytes_per_s). Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"io"
	"runtime"
	"testing"

	"phantom/internal/telemetry"
)

func benchTable1(b *testing.B, arch Microarch) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := RunTable1(arch, Table1Options{Seed: int64(i), Trials: 3})
		if err != nil {
			b.Fatal(err)
		}
		_ = tb
	}
}

func BenchmarkTable1_Zen1(b *testing.B)    { benchTable1(b, Zen1) }
func BenchmarkTable1_Zen2(b *testing.B)    { benchTable1(b, Zen2) }
func BenchmarkTable1_Zen3(b *testing.B)    { benchTable1(b, Zen3) }
func BenchmarkTable1_Zen4(b *testing.B)    { benchTable1(b, Zen4) }
func BenchmarkTable1_Intel9(b *testing.B)  { benchTable1(b, Intel9) }
func BenchmarkTable1_Intel13(b *testing.B) { benchTable1(b, Intel13) }

func benchFig6(b *testing.B, arch Microarch) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss, err := RunFig6Sweep(context.Background(), []Microarch{arch}, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		signal := 0
		for _, p := range ss[0].Points {
			signal += p.Misses
		}
		if signal == 0 {
			b.Fatal("no Fig6 signal")
		}
	}
}

func BenchmarkFig6_Zen2(b *testing.B) { benchFig6(b, Zen2) }
func BenchmarkFig6_Zen4(b *testing.B) { benchFig6(b, Zen4) }

func BenchmarkFig7_BruteForceZen2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := RunFig7(Zen2, Fig7Options{Seed: int64(i), Samples: 4, MaxBatches: 200, BruteBudget: 20000})
		if err != nil {
			b.Fatal(err)
		}
		if !f.BruteForceFound {
			b.Fatal("brute force failed")
		}
	}
}

func BenchmarkFig7_RecoveryZen3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := RunFig7(Zen3, Fig7Options{Seed: int64(i) + 9, BruteBudget: 500})
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Functions) < 12 {
			b.Fatalf("recovered only %d functions", len(f.Functions))
		}
	}
}

func benchCovert(b *testing.B, arch Microarch,
	run func([]Microarch, Table2Options) ([]Table2Row, error)) {
	b.ReportAllocs()
	var acc, rate float64
	for i := 0; i < b.N; i++ {
		rows, err := run([]Microarch{arch}, Table2Options{Seed: int64(i), Bits: 1024, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		acc += rows[0].AccuracyPct
		rate += rows[0].BitsPerSec
	}
	b.ReportMetric(acc/float64(b.N), "accuracy_pct")
	b.ReportMetric(rate/float64(b.N), "sim_bits_per_s")
}

func BenchmarkTable2_FetchZen1(b *testing.B)   { benchCovert(b, Zen1, RunTable2Fetch) }
func BenchmarkTable2_FetchZen2(b *testing.B)   { benchCovert(b, Zen2, RunTable2Fetch) }
func BenchmarkTable2_FetchZen3(b *testing.B)   { benchCovert(b, Zen3, RunTable2Fetch) }
func BenchmarkTable2_FetchZen4(b *testing.B)   { benchCovert(b, Zen4, RunTable2Fetch) }
func BenchmarkTable2_ExecuteZen1(b *testing.B) { benchCovert(b, Zen1, RunTable2Execute) }
func BenchmarkTable2_ExecuteZen2(b *testing.B) { benchCovert(b, Zen2, RunTable2Execute) }

func benchTable3(b *testing.B, arch Microarch) {
	b.ReportAllocs()
	correct, simSecs := 0, 0.0
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(arch, SystemConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.BreakImageKASLR()
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct {
			correct++
		}
		simSecs += res.Seconds
	}
	b.ReportMetric(100*float64(correct)/float64(b.N), "accuracy_pct")
	b.ReportMetric(1000*simSecs/float64(b.N), "sim_ms")
}

func BenchmarkTable3_Zen2(b *testing.B) { benchTable3(b, Zen2) }
func BenchmarkTable3_Zen3(b *testing.B) { benchTable3(b, Zen3) }
func BenchmarkTable3_Zen4(b *testing.B) { benchTable3(b, Zen4) }

func benchTable4(b *testing.B, arch Microarch) {
	b.ReportAllocs()
	correct, simSecs := 0, 0.0
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(arch, SystemConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		img, err := sys.BreakImageKASLR()
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.BreakPhysmapKASLR(img.Guess)
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct {
			correct++
		}
		simSecs += res.Seconds
	}
	b.ReportMetric(100*float64(correct)/float64(b.N), "accuracy_pct")
	b.ReportMetric(1000*simSecs/float64(b.N), "sim_ms")
}

func BenchmarkTable4_Zen1(b *testing.B) { benchTable4(b, Zen1) }
func BenchmarkTable4_Zen2(b *testing.B) { benchTable4(b, Zen2) }

func benchTable5(b *testing.B, arch Microarch, mem uint64) {
	b.ReportAllocs()
	correct, simSecs := 0, 0.0
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(arch, SystemConfig{Seed: int64(i), PhysBytes: mem})
		if err != nil {
			b.Fatal(err)
		}
		img, err := sys.BreakImageKASLR()
		if err != nil {
			b.Fatal(err)
		}
		pm, err := sys.BreakPhysmapKASLR(img.Guess)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.FindPhysAddr(img.Guess, pm.Guess)
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct {
			correct++
		}
		simSecs += res.Seconds
	}
	b.ReportMetric(100*float64(correct)/float64(b.N), "accuracy_pct")
	b.ReportMetric(1000*simSecs/float64(b.N), "sim_ms")
}

func BenchmarkTable5_Zen1_8GB(b *testing.B)  { benchTable5(b, Zen1, 8<<30) }
func BenchmarkTable5_Zen2_64GB(b *testing.B) { benchTable5(b, Zen2, 64<<30) }

func BenchmarkSec74_MDSLeak(b *testing.B) {
	b.ReportAllocs()
	accSum, rateSum := 0.0, 0.0
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(Zen2, SystemConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		secretVA, _ := sys.SecretAddr()
		res, err := sys.LeakKernelMemory(secretVA, 512)
		if err != nil {
			b.Fatal(err)
		}
		accSum += res.AccuracyPct
		rateSum += res.BytesPerSecond
	}
	b.ReportMetric(accSum/float64(b.N), "accuracy_pct")
	b.ReportMetric(rateSum/float64(b.N), "sim_bytes_per_s")
}

func BenchmarkSec63_SuppressOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := RunMitigations(context.Background(), Zen2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if m.SuppressReach.EX {
			b.Fatal("O4 violated")
		}
		b.ReportMetric(m.OverheadPct, "overhead_pct")
	}
}

func BenchmarkSec63_AutoIBRS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := RunMitigations(context.Background(), Zen4, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !m.AutoIBRSLeavesIF || !m.AutoIBRSBlocksID {
			b.Fatal("O5 violated")
		}
	}
}

// Sweep-engine benchmarks: the same Table 3 sweep (3 µarchs × 8
// reboots) at one worker vs the full pool. The ratio is the harness's
// parallel speedup; the tables themselves are byte-identical either way
// (see TestTable3SweepDeterminism).

func benchTable3Sweep(b *testing.B, jobs int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := RunTable3([]Microarch{Zen2, Zen3, Zen4},
			DerandOptions{Seed: int64(i), Runs: 8, Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkSweepTable3_1Worker(b *testing.B) { benchTable3Sweep(b, 1) }
func BenchmarkSweepTable3_NWorkers(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	benchTable3Sweep(b, runtime.GOMAXPROCS(0))
}

// BenchmarkReport is the headline end-to-end number: GenerateReport,
// every section on every modeled part, at Seed 7 and Runs 2 on the
// default pool — the shape of one perfbench report unit. `make
// bench-report` archives it.
func BenchmarkReport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := GenerateReport(io.Discard, ReportOptions{Seed: 7, Runs: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// Telemetry overhead benchmarks: the same Table 1 workload with the hub
// disabled vs fully enabled (run log and progress into discard sinks).
// Machines batch counter deltas at Run boundaries, so the enabled cost
// must stay within noise of the nil-check-only disabled path — the
// BENCH_*_telemetry.json files in the repo pin the measured gap.

func benchTable1Telemetry(b *testing.B, enabled bool) {
	if enabled {
		telemetry.Enable(telemetry.Config{
			RunLog:   io.Discard,
			Progress: io.Discard,
			Label:    "bench",
		})
		defer telemetry.Disable() //nolint:errcheck // discard sink
	}
	benchTable1(b, Zen2)
}

func BenchmarkTable1Telemetry_Off(b *testing.B) { benchTable1Telemetry(b, false) }
func BenchmarkTable1Telemetry_On(b *testing.B)  { benchTable1Telemetry(b, true) }

// Substrate micro-benchmarks: the cost of the simulator primitives the
// experiments are built from.

func BenchmarkSubstrate_Boot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(Zen2, SystemConfig{Seed: int64(i), Deterministic: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_Syscall(b *testing.B) {
	b.ReportAllocs()
	sys, err := NewSystem(Zen2, SystemConfig{Seed: 1, Deterministic: true})
	if err != nil {
		b.Fatal(err)
	}
	img, err := sys.BreakImageKASLR() // warms the syscall path
	if err != nil || !img.Correct {
		b.Fatalf("setup: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.BreakImageKASLR(); err != nil {
			b.Fatal(err)
		}
	}
}
