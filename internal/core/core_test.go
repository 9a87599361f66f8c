package core

import (
	"context"
	"errors"
	"testing"

	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/uarch"
)

func bootZen2(t *testing.T, seed int64, noise float64) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(uarch.Zen2(), kernel.Config{Seed: seed, NoiseLevel: noise})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAttackTrainSourceAliases(t *testing.T) {
	k := bootZen2(t, 1, 0)
	a, err := NewAttack(k)
	if err != nil {
		t.Fatal(err)
	}
	victim := k.Symbol("covert_branch_site")
	u := a.TrainSourceFor(victim)
	if u>>47 != 0 {
		t.Fatalf("training source %#x is not a user address", u)
	}
	if !k.M.BTB.Scheme().Collides(u, false, victim, true) {
		t.Fatal("training source does not alias the kernel victim")
	}
}

func TestInjectPredictionPlantsEntry(t *testing.T) {
	k := bootZen2(t, 2, 0)
	a, err := NewAttack(k)
	if err != nil {
		t.Fatal(err)
	}
	victim := k.Symbol("covert_branch_site")
	target := k.ImageBase + 0x3000
	if err := a.InjectPrediction(victim, target); err != nil {
		t.Fatal(err)
	}
	pred, ok := k.M.BTB.Lookup(victim, true)
	if !ok {
		t.Fatal("no prediction at the kernel victim after injection")
	}
	if pred.Target != target {
		t.Fatalf("predicted target %#x, want %#x", pred.Target, target)
	}
	if pred.TrainedKernel {
		t.Fatal("entry claims kernel-mode training")
	}
}

func TestAttackFailsOnIntel(t *testing.T) {
	k, err := kernel.Boot(uarch.Intel13(), kernel.Config{Seed: 3, NoiseLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttack(k); err == nil {
		t.Fatal("attack context built on a privilege-tagged BTB")
	}
}

func TestIPrimeProbeDetectsEviction(t *testing.T) {
	k := bootZen2(t, 4, 0)
	const set = 21
	pp, err := NewIPrimeProbe(k, 0x7f1000000000, set)
	if err != nil {
		t.Fatal(err)
	}
	pp.Prime()
	quiet := pp.Probe()

	// Plant a foreign line in the monitored set by fetching unrelated
	// user code at the same page offset.
	blob := make([]byte, mem.PageSize)
	for i := range blob {
		blob[i] = 0x90
	}
	if err := k.MapUserCode(0x7f1100000000, blob); err != nil {
		t.Fatal(err)
	}
	pp.Prime()
	k.M.TimedFetch(0x7f1100000000 + uint64(set)<<6)
	loud := pp.Probe()

	if loud <= quiet {
		t.Fatalf("probe did not detect eviction: quiet=%d loud=%d", quiet, loud)
	}
}

func TestDPrimeProbeDetectsVictimLoad(t *testing.T) {
	k := bootZen2(t, 5, 0)
	hugeVA := uint64(0x7f2000000000)
	if _, err := k.AllocUserHuge(hugeVA); err != nil {
		t.Fatal(err)
	}
	targetPA := uint64(0x40000000) | 0xbe0
	pp := NewDPrimeProbe(k.M, hugeVA, targetPA)
	pp.Prime()
	quiet := pp.Probe()

	// Kernel-side load of the monitored line (simulating the transient
	// access).
	k.M.Hier.AccessData(targetPA)

	pp.Prime()
	k.M.Hier.AccessData(targetPA)
	loud := pp.Probe()
	if loud <= quiet {
		t.Fatalf("D-probe did not detect the load: quiet=%d loud=%d", quiet, loud)
	}
}

func TestFlushReload(t *testing.T) {
	k := bootZen2(t, 6, 0)
	if err := k.MapUserData(0x7f3000000000, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	fr := NewFlushReload(k.M, 0x7f3000000000+0x80)
	fr.Prime()
	cold := fr.Probe()
	warm := fr.Probe()
	if cold <= warm {
		t.Fatalf("cold=%d warm=%d", cold, warm)
	}
}

func TestScoreBounded(t *testing.T) {
	probes := []float64{100, 40, 33, 32}
	base := []float64{32, 32, 32, 32}
	// Clamped at 10: 10 + 8 + 1 + 0.
	if got := ScoreBounded(probes, base, 10); got != 19 {
		t.Fatalf("score = %v", got)
	}
	// Negative differences clamp too.
	if got := ScoreBounded([]float64{0}, []float64{100}, 10); got != -10 {
		t.Fatalf("negative clamp = %v", got)
	}
	// Length mismatch uses the shorter.
	if got := ScoreBounded([]float64{42, 42}, []float64{32}, 10); got != 10 {
		t.Fatalf("length mismatch = %v", got)
	}
}

func TestMatrixZen2MatchesPaper(t *testing.T) {
	res, err := RunMatrix(context.Background(), uarch.Zen2(), MatrixConfig{Seed: 7, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Spot checks on the cells the paper annotates.
	if c := res.Cells[KindJmpInd][KindJmpInd]; c.Status != CellSymmetric {
		t.Error("(jmp*, jmp*) should be the Spectre-V2 symmetric cell")
	}
	if c := res.Cells[KindJmpInd][KindRet]; c.Note == "" || !c.Reach.EX {
		t.Errorf("(jmp*, ret) = %+v, want Retbleed note and EX", c)
	}
	if c := res.Cells[KindNonBranch][KindRet]; !c.Reach.EX {
		t.Errorf("SLS cell = %+v, want EX", c)
	}
	if c := res.Cells[KindNonBranch][KindJmpInd]; c.Reach.Any() {
		t.Errorf("(non-branch, jmp*) = %+v, want no signal (frontend stalls)", c)
	}
}

func TestFig6SeriesOffsetConfigurable(t *testing.T) {
	pts, err := RunFig6(context.Background(), uarch.Zen2(), Fig6Config{Seed: 9, SeriesOffset: 0x540})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		want := p.Offset>>6 == 0x540>>6
		if want && p.Misses == 0 {
			t.Errorf("no signal at configured offset %#x", p.Offset)
		}
		if !want && p.Misses != 0 {
			t.Errorf("spurious signal at %#x", p.Offset)
		}
	}
}

func TestCovertFetchZeroNoiseIsPerfect(t *testing.T) {
	res, err := RunCovertFetch(context.Background(), uarch.Zen3(), CovertConfig{Seed: 10, Bits: 128, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Noise < 0 disables the noise source entirely; the channel should be
	// error-free.
	if res.Accuracy.Percent() != 100 {
		t.Fatalf("noiseless fetch channel accuracy %s", &res.Accuracy)
	}
}

func TestImageKASLRTimingScalesWithSets(t *testing.T) {
	k1 := bootZen2(t, 11, 0)
	r1, err := BreakImageKASLR(k1, ImageKASLRConfig{Sets: 2})
	if err != nil {
		t.Fatal(err)
	}
	k2 := bootZen2(t, 11, 0)
	r2, err := BreakImageKASLR(k2, ImageKASLRConfig{Sets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Correct || !r2.Correct {
		t.Fatal("KASLR break failed")
	}
	if r2.Cycles <= r1.Cycles {
		t.Fatalf("8-set scan (%d cyc) not slower than 2-set scan (%d cyc)", r2.Cycles, r1.Cycles)
	}
}

func TestPhysmapScanAscendingFindsBaseNotInterior(t *testing.T) {
	// Several slots above the true base also land inside the mapped
	// range; the ascending scan must report the base itself.
	k := bootZen2(t, 12, 0)
	res, err := BreakPhysmapKASLR(k, PhysmapKASLRConfig{ImageBase: k.ImageBase})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("physmap scan: %v", res)
	}
}

func TestLeakArbitraryKernelAddress(t *testing.T) {
	// Leak kernel *text* rather than the planted secret, proving the
	// primitive reads arbitrary addresses.
	k := bootZen2(t, 13, 0)
	hugeVA := uint64(0x7f6000000000)
	pa, err := k.AllocUserHuge(hugeVA)
	if err != nil {
		t.Fatal(err)
	}
	target := k.Symbol("getpid_site")
	res, err := LeakKernelMemory(k, target, MDSLeakConfig{
		ImageBase: k.ImageBase, PhysmapBase: k.PhysmapBase,
		ReloadPhys: pa, HugeVA: hugeVA, Bytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Percent() != 100 {
		t.Fatalf("text leak accuracy %s", &res.Accuracy)
	}
	// First byte of the 5-byte nop encoding.
	if res.Leaked[0] != 0x0f {
		t.Fatalf("leaked[0] = %#x, want 0x0f (nop5 opcode)", res.Leaked[0])
	}
}

func TestBruteForceRespectsBudget(t *testing.T) {
	res, err := BruteForceCollisions(context.Background(), uarch.Zen3(), 14, 6, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested > 500 {
		t.Fatalf("budget exceeded: %d", res.Tested)
	}
	if res.Found {
		t.Fatal("Zen3 brute force cannot succeed")
	}
}

func TestRecoveryUnderdeterminedReturnsNoFunctions(t *testing.T) {
	res, err := RecoverBTBFunctions(context.Background(), uarch.Zen3(), 15, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Functions) != 0 {
		t.Fatalf("underdetermined recovery returned %d functions", len(res.Functions))
	}
}

func TestSuppressOverheadBand(t *testing.T) {
	ctx, zen2 := context.Background(), uarch.Zen2()
	base, err := workloadSuite(ctx, zen2, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := workloadSuite(ctx, zen2, 16, enableSuppressBPOnNonBr)
	if err != nil {
		t.Fatal(err)
	}
	pct := overheadPct(base, on)
	// The paper measures 0.69% (single core); the model should land in
	// the same sub-2% band and must not be zero or negative.
	if pct <= 0 || pct > 2 {
		t.Fatalf("SuppressBPOnNonBr overhead %.3f%%, want (0, 2]", pct)
	}
}

// TestRunFullChainZen1 runs the complete Section 7 chain on one boot —
// image KASLR (P1), then physmap KASLR (P2), then the physical address
// of an attacker page — feeding each stage's *recovered* value (not
// ground truth) into the next, exactly as a real exploit must.
func TestRunFullChainZen1(t *testing.T) {
	k, err := kernel.Boot(uarch.Zen1(), kernel.Config{Seed: 31, NoiseLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	img, err := BreakImageKASLR(k, ImageKASLRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := BreakPhysmapKASLR(k, PhysmapKASLRConfig{ImageBase: img.Guess})
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := FindPhysAddr(k, PhysAddrConfig{ImageBase: img.Guess, PhysmapBase: pm.Guess})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Correct {
		t.Fatalf("image stage: %v", img)
	}
	if !pm.Correct {
		t.Fatalf("physmap stage: %v", pm)
	}
	if !pa.Correct {
		t.Fatalf("physaddr stage: %v", pa)
	}
	// Each stage consumed the previous stage's output; their simulated
	// times are all nonzero and the chain is strictly ordered.
	if img.Seconds <= 0 || pm.Seconds <= 0 || pa.Seconds <= 0 {
		t.Fatal("missing stage timings")
	}
}

func TestCovertFetchSurvivesSiblingStress(t *testing.T) {
	// Section 6.4 runs `stress -c 10` on the sibling thread during the
	// fetch channel. The calibrated threshold must keep the channel
	// usable under that extra I-cache interference.
	res, err := RunCovertFetch(context.Background(), uarch.Zen2(), CovertConfig{
		Seed: 33, Bits: 256, SiblingStress: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Percent() < 80 {
		t.Fatalf("fetch channel under sibling stress: %s", &res.Accuracy)
	}
}

func TestSpectreV2BaselineWorksEverywhere(t *testing.T) {
	// The conventional attack succeeds even where Phantom's execute
	// window is zero — backend-resolved windows are long on every part.
	for _, p := range []*uarch.Profile{uarch.Zen2(), uarch.Zen4(), uarch.Intel13()} {
		res, err := RunSpectreV2(context.Background(), p, 34, 16)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Accuracy.Percent() < 95 {
			t.Errorf("%s: Spectre-V2 baseline accuracy %s", p, &res.Accuracy)
		}
		if res.WindowLoads < 2 {
			t.Errorf("%s: wrong path executed %d loads, want >= 2 (two-load gadget)",
				p, res.WindowLoads)
		}
	}
}

// TestCancelledContextFailsEveryEntryPoint pins how a run's context
// reaches inside the attacks: every entry point binds it to the machines
// it builds, so under a done context each one fails with the context's
// own error at its first machine run instead of producing a result.
func TestCancelledContextFailsEveryEntryPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	zen2 := uarch.Zen2()
	k, err := kernel.Boot(zen2, kernel.Config{Seed: 1, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"BreakImageKASLR", func() error { _, err := BreakImageKASLR(k, ImageKASLRConfig{}); return err }},
		{"RunMatrix", func() error { _, err := RunMatrix(ctx, zen2, MatrixConfig{Trials: 1}); return err }},
		{"RunFig6", func() error { _, err := RunFig6(ctx, zen2, Fig6Config{}); return err }},
		{"RunCovertFetch", func() error { _, err := RunCovertFetch(ctx, zen2, CovertConfig{Bits: 8}); return err }},
		{"RunCovertExecute", func() error { _, err := RunCovertExecute(ctx, zen2, CovertConfig{Bits: 8}); return err }},
		{"RunSpectreV2", func() error { _, err := RunSpectreV2(ctx, zen2, 1, 1); return err }},
		{"EvaluateMitigations", func() error { _, err := EvaluateMitigations(ctx, zen2, 1); return err }},
		{"BruteForceCollisions", func() error { _, err := BruteForceCollisions(ctx, zen2, 1, 4, 10); return err }},
		{"RecoverBTBFunctions", func() error { _, err := RecoverBTBFunctions(ctx, zen2, 1, 4, 10); return err }},
	}
	for _, c := range cases {
		if err := c.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", c.name, err)
		}
	}
}
