package phantom

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// bench contrasts the shipped mechanism with a deliberately weakened
// variant and reports the quality metric the mechanism buys:
//
//	BenchmarkAblation_Scoring       — Section 7.3 multi-set bounded scoring
//	                                  vs a naive single-set unbounded score
//	BenchmarkAblation_Confirmation  — the physmap scan's majority re-test
//	                                  vs accepting the first raw signal
//	BenchmarkAblation_PhantomWindow — MDS-leak success as a function of the
//	                                  Phantom execute-window size
//	BenchmarkAblation_NoiseSweep    — fetch covert-channel accuracy under
//	                                  increasing noise
//	BenchmarkAblation_SpectreBaseline — the Listing 4 gadget attacked with
//	                                  classic Spectre only (no nested
//	                                  Phantom window): the paper's claim
//	                                  that MDS gadgets are useless to
//	                                  conventional Spectre
import (
	"testing"

	"phantom/internal/core"
	"phantom/internal/kernel"
	"phantom/internal/uarch"
)

// ablationKASLRAccuracy measures image-KASLR accuracy under a given
// scoring configuration.
func ablationKASLRAccuracy(b *testing.B, cfg core.ImageKASLRConfig) float64 {
	b.Helper()
	correct := 0
	const runs = 6
	for r := 0; r < runs; r++ {
		k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: int64(r) * 7, NoiseLevel: 2})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.BreakImageKASLR(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct {
			correct++
		}
	}
	return 100 * float64(correct) / runs
}

func BenchmarkAblation_Scoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := ablationKASLRAccuracy(b, core.ImageKASLRConfig{Sets: 4, Bound: 10})
		naive := ablationKASLRAccuracy(b, core.ImageKASLRConfig{Sets: 1, Bound: 1e9})
		b.ReportMetric(full, "scored_accuracy_pct")
		b.ReportMetric(naive, "naive_accuracy_pct")
		if full < naive {
			b.Logf("warning: scoring did not help at this noise level (%v vs %v)", full, naive)
		}
	}
}

func BenchmarkAblation_Confirmation(b *testing.B) {
	run := func(confirmations int) float64 {
		correct := 0
		const runs = 4
		for r := 0; r < runs; r++ {
			k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: int64(r)*13 + 1, NoiseLevel: 2})
			if err != nil {
				b.Fatal(err)
			}
			img, err := core.BreakImageKASLR(k, core.ImageKASLRConfig{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.BreakPhysmapKASLR(k, core.PhysmapKASLRConfig{
				ImageBase:     img.Guess,
				Confirmations: confirmations,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Correct {
				correct++
			}
		}
		return 100 * float64(correct) / runs
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(3), "confirmed_accuracy_pct")
		b.ReportMetric(run(-1), "unconfirmed_accuracy_pct")
	}
}

func BenchmarkAblation_PhantomWindow(b *testing.B) {
	// Sweep the Phantom execute budget and measure whether the MDS-gadget
	// leak works. The paper's P3 disclosure gadget needs 4 µops (and,
	// shl, add, load); a window of 0 yields nothing, tiny windows cut the
	// gadget short, and the Zen 2 budget of 6 suffices.
	for _, window := range []int{0, 2, 4, 6, 8} {
		b.Run(benchName("execUops", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := uarch.Zen2()
				p.PhantomWindow.ExecUops = window
				k, err := kernel.Boot(p, kernel.Config{Seed: 3, NoiseLevel: 0})
				if err != nil {
					b.Fatal(err)
				}
				hugeVA := uint64(0x7f6000000000)
				pa, err := k.AllocUserHuge(hugeVA)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.LeakKernelMemory(k, k.SecretVA, core.MDSLeakConfig{
					ImageBase: k.ImageBase, PhysmapBase: k.PhysmapBase,
					ReloadPhys: pa, HugeVA: hugeVA, Bytes: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Accuracy.Percent(), "leak_accuracy_pct")
			}
		})
	}
}

func BenchmarkAblation_NoiseSweep(b *testing.B) {
	for _, noise := range []float64{-1, 1, 2, 4, 8} {
		b.Run(benchName("noise10x", int(noise*10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: int64(i), NoiseLevel: noise})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunCovertFetch(k, core.CovertConfig{Bits: 512})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Accuracy.Percent(), "accuracy_pct")
			}
		})
	}
}

func BenchmarkAblation_SpectreBaseline(b *testing.B) {
	// Classic Spectre against the Listing 4 gadget: train the bounds
	// check taken but do NOT inject the nested Phantom prediction. The
	// wrong path performs the single out-of-bounds load and then calls
	// the real parse_data — no secret-dependent second load exists, so
	// nothing reaches the reload buffer. This is the paper's motivation
	// for P3: "A conventional Spectre attack would not succeed, however,
	// since there is no data-dependent load."
	for i := 0; i < b.N; i++ {
		k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: 5, NoiseLevel: 0})
		if err != nil {
			b.Fatal(err)
		}
		hugeVA := uint64(0x7f6000000000)
		pa, err := k.AllocUserHuge(hugeVA)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.LeakKernelMemoryBaseline(k, k.SecretVA, core.MDSLeakConfig{
			ImageBase: k.ImageBase, PhysmapBase: k.PhysmapBase,
			ReloadPhys: pa, HugeVA: hugeVA, Bytes: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy.Percent(), "baseline_leak_accuracy_pct")
		if res.Accuracy.Percent() > 0 {
			b.Fatal("classic Spectre leaked through a single-load gadget")
		}
	}
}

func benchName(key string, v int) string {
	if v < 0 {
		return key + "=off"
	}
	return key + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkAblation_Amplification(b *testing.B) {
	// The §7.3 amplifier: a second speculative branch on the syscall path
	// doubles the per-set eviction signal. Compare image-KASLR accuracy
	// at an elevated noise level with and without it.
	run := func(amplify bool) float64 {
		correct := 0
		const runs = 6
		for r := 0; r < runs; r++ {
			k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: int64(r)*17 + 2, NoiseLevel: 3})
			if err != nil {
				b.Fatal(err)
			}
			// Bound 30: above one eviction's latency delta (~14 cycles),
			// so the amplifier's doubled signal is not clamped away.
			res, err := core.BreakImageKASLR(k, core.ImageKASLRConfig{Sets: 2, Bound: 30, Amplify: amplify})
			if err != nil {
				b.Fatal(err)
			}
			if res.Correct {
				correct++
			}
		}
		return 100 * float64(correct) / runs
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "amplified_accuracy_pct")
		b.ReportMetric(run(false), "plain_accuracy_pct")
	}
}
