package phantom

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"phantom/internal/telemetry"
)

// reach finds a Table1 cell by kind names.
func (t *Table1) reach(train, victim string) StageReach {
	for _, row := range t.Cells {
		for _, c := range row {
			if c.Training == train && c.Victim == victim {
				return c.Reach
			}
		}
	}
	return StageReach{}
}

func TestTable1Zen2FullReach(t *testing.T) {
	tb, err := RunTable1(Zen2, Table1Options{Seed: 1, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	// O3: decoder-detectable mispredictions reach execute on Zen 1/2.
	for _, train := range []string{"jmp*", "jmp", "jcc", "ret"} {
		for _, victim := range []string{"jmp", "jcc", "non-branch"} {
			if train == victim {
				continue
			}
			r := tb.reach(train, victim)
			if !r.EX {
				t.Errorf("zen2 (%s,%s) = %v, want EX", train, victim, r)
			}
		}
	}
	// Retbleed cell: jmp* training on a ret victim.
	if r := tb.reach("jmp*", "ret"); !r.EX {
		t.Errorf("zen2 (jmp*,ret) = %v, want EX", r)
	}
	// Footnote c: straight-line speculation past an unpredicted return.
	if r := tb.reach("non-branch", "ret"); !r.EX {
		t.Errorf("zen2 SLS cell = %v, want EX", r)
	}
}

func TestTable1Zen4DecodeOnly(t *testing.T) {
	tb, err := RunTable1(Zen4, Table1Options{Seed: 2, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Phantom on Zen 3/4 reaches fetch and decode but never execute.
	for _, train := range []string{"jmp*", "jmp", "jcc", "ret"} {
		for _, victim := range []string{"jmp*", "jmp", "jcc", "ret", "non-branch"} {
			if train == victim {
				continue
			}
			r := tb.reach(train, victim)
			if r.EX {
				t.Errorf("zen4 (%s,%s) reached EX", train, victim)
			}
			if victim != "jmp*" && (!r.IF || !r.ID) {
				t.Errorf("zen4 (%s,%s) = %v, want IF+ID", train, victim, r)
			}
		}
	}
	// SLS resolves at execute, not at decode, so it still reaches EX.
	if r := tb.reach("non-branch", "ret"); !r.EX {
		t.Errorf("zen4 SLS cell = %v, want EX", r)
	}
}

func TestTable1IntelAnomalies(t *testing.T) {
	tb9, err := RunTable1(Intel9, Table1Options{Seed: 3, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 9th gen: no observable speculation at jmp* victims.
	for _, train := range []string{"jmp", "jcc"} {
		if r := tb9.reach(train, "jmp*"); r.IF || r.ID || r.EX {
			t.Errorf("intel9 (%s,jmp*) = %v, want none", train, r)
		}
	}
	// No straight-line speculation on Intel.
	if r := tb9.reach("non-branch", "ret"); r.EX {
		t.Errorf("intel9 SLS cell = %v, want no EX", r)
	}

	tb12, err := RunTable1(Intel12, Table1Options{Seed: 4, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 12th gen P-cores: jmp* victims fetch but do not decode.
	if r := tb12.reach("jmp", "jmp*"); !r.IF || r.ID {
		t.Errorf("intel12 (jmp,jmp*) = %v, want IF only", r)
	}
}

func TestTable1ObservationsO1O2O3(t *testing.T) {
	// O1/O2 hold on every modeled part: some evaluated cell shows IF and
	// ID on each microarchitecture. O3: decoder-detectable speculation
	// (a trained branch, so outside the non-branch row) reaches EX only
	// on Zen 1/2.
	for _, arch := range AllMicroarchs() {
		tb, err := RunTable1(arch, Table1Options{Seed: 5, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		anyIF, anyID, anyEX := false, false, false
		for tr, row := range tb.Cells {
			for _, c := range row {
				if c.Excluded {
					continue
				}
				anyIF = anyIF || c.Reach.IF
				anyID = anyID || c.Reach.ID
				if tb.Kinds[tr] != "non-branch" {
					anyEX = anyEX || c.Reach.EX
				}
			}
		}
		if !anyIF || !anyID {
			t.Errorf("%s: O1/O2 violated (IF=%v ID=%v)", arch, anyIF, anyID)
		}
		if want := arch == Zen1 || arch == Zen2; anyEX != want {
			t.Errorf("%s: O3 violated (EX outside the non-branch row = %v, want %v)", arch, anyEX, want)
		}
	}
}

func TestTable1UnderNoise(t *testing.T) {
	// The channels must survive calibrated noise via the negative-test
	// methodology.
	tb, err := RunTable1(Zen2, Table1Options{Seed: 6, Trials: 8, Noise: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := tb.reach("jmp*", "non-branch"); !r.EX {
		t.Errorf("noisy zen2 (jmp*,non-branch) = %v, want EX", r)
	}
}

func TestFig6SignalOnlyAtSeriesOffset(t *testing.T) {
	series, err := RunFig6Sweep(context.Background(), []Microarch{Zen2, Zen4}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		arch := s.Arch
		for _, p := range s.Points {
			sameSet := p.Offset>>6 == s.SeriesOffset>>6
			if sameSet && p.Misses == 0 {
				t.Errorf("%s: no misses at matching offset %#x", arch, p.Offset)
			}
			if !sameSet && p.Misses != 0 {
				t.Errorf("%s: spurious misses at offset %#x", arch, p.Offset)
			}
		}
	}
}

func TestFig7RecoversPublishedFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("collision sampling is slow")
	}
	f, err := RunFig7(Zen3, Fig7Options{Seed: 9, BruteBudget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force must fail on Zen 3 (needs 12-bit flips).
	if f.BruteForceFound {
		t.Error("brute force found a small-flip collision on Zen3")
	}
	// All 12 published functions must be among the recovered ones.
	published := []string{
		"b47 ⊕ b35 ⊕ b23",
		"b47 ⊕ b36 ⊕ b24 ⊕ b12",
		"b47 ⊕ b37 ⊕ b25 ⊕ b13",
		"b47 ⊕ b38 ⊕ b26 ⊕ b14",
		"b47 ⊕ b39 ⊕ b26 ⊕ b13",
		"b47 ⊕ b39 ⊕ b27 ⊕ b15",
		"b47 ⊕ b40 ⊕ b28 ⊕ b16",
		"b47 ⊕ b41 ⊕ b29 ⊕ b17",
		"b47 ⊕ b42 ⊕ b30 ⊕ b18",
		"b47 ⊕ b43 ⊕ b31 ⊕ b19",
		"b47 ⊕ b44 ⊕ b32 ⊕ b20",
		"b47 ⊕ b45 ⊕ b33 ⊕ b21",
	}
	got := strings.Join(f.Functions, "\n")
	for _, want := range published {
		if !strings.Contains(got, want) {
			t.Errorf("published function %q not recovered", want)
		}
	}
	// The b12/b16 and b13/b17 overlaps.
	overlaps := strings.Join(f.TagOverlaps, "\n")
	for _, want := range []string{"b16 ⊕ b12", "b17 ⊕ b13"} {
		if !strings.Contains(overlaps, want) {
			t.Errorf("tag overlap %q not recovered", want)
		}
	}
}

func TestFig7BruteForceSucceedsOnZen2(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force is slow")
	}
	f, err := RunFig7(Zen2, Fig7Options{Seed: 10, Samples: 4, MaxBatches: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !f.BruteForceFound {
		t.Fatal("brute force failed on Zen2 (a 4-bit pattern exists)")
	}
}

func TestTable2FetchAllZen(t *testing.T) {
	rows, err := RunTable2Fetch(AMDMicroarchs(), Table2Options{Seed: 11, Bits: 256, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Table 2 fetch accuracies range 90.67%-100%.
		if r.AccuracyPct < 85 {
			t.Errorf("%s fetch channel accuracy %.2f%%, want >= 85%%", r.Arch, r.AccuracyPct)
		}
	}
}

func TestTable2ExecuteOnlyZen12(t *testing.T) {
	rows, err := RunTable2Execute(AMDMicroarchs(), Table2Options{Seed: 12, Bits: 256, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Arch {
		case Zen1, Zen2:
			if r.AccuracyPct < 90 {
				t.Errorf("%s execute channel accuracy %.2f%%, want >= 90%%", r.Arch, r.AccuracyPct)
			}
		default:
			// No Phantom execute window: the channel degenerates to noise.
			if r.AccuracyPct > 65 {
				t.Errorf("%s execute channel accuracy %.2f%%, want chance level", r.Arch, r.AccuracyPct)
			}
		}
	}
}

func TestTable3ImageKASLR(t *testing.T) {
	rows, err := RunTable3([]Microarch{Zen2, Zen3, Zen4}, DerandOptions{Seed: 13, Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Table 3 accuracies are 95-100%.
		if r.AccuracyPct < 75 {
			t.Errorf("%s image KASLR accuracy %.0f%%", r.Arch, r.AccuracyPct)
		}
		if r.MedianSeconds <= 0 {
			t.Errorf("%s: no time recorded", r.Arch)
		}
	}
}

func TestTable4PhysmapKASLR(t *testing.T) {
	rows, err := RunTable4([]Microarch{Zen1, Zen2}, DerandOptions{Seed: 14, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Table 4: 90-100%.
		if r.AccuracyPct < 66 {
			t.Errorf("%s physmap KASLR accuracy %.0f%%", r.Arch, r.AccuracyPct)
		}
	}
}

func TestPhysmapKASLRFailsOnZen3(t *testing.T) {
	// P2 needs the Phantom execute window; Zen 3 has none, so the scan
	// must come up empty rather than report a wrong base confidently...
	sys, err := NewSystem(Zen3, SystemConfig{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	img, err := sys.BreakImageKASLR()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.BreakPhysmapKASLR(img.Guess)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("physmap KASLR succeeded on Zen3, which lacks transient execution")
	}
	if res.Guess != 0 {
		t.Fatalf("physmap scan on Zen3 found a (false) signal at %#x", res.Guess)
	}
}

func TestTable5PhysAddr(t *testing.T) {
	rows, err := RunTable5(DerandOptions{Seed: 16, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AccuracyPct < 50 {
			t.Errorf("%s (%s) physaddr accuracy %.0f%%", r.Arch, r.Memory, r.AccuracyPct)
		}
	}
	// The 64 GB machine's search takes proportionally longer (the paper
	// measures 1 s vs 16 s medians).
	if rows[1].MedianSeconds <= rows[0].MedianSeconds {
		t.Errorf("64 GB scan (%f s) not slower than 8 GB scan (%f s)",
			rows[1].MedianSeconds, rows[0].MedianSeconds)
	}
}

func TestMDSLeakEndToEnd(t *testing.T) {
	sys, err := NewSystem(Zen2, SystemConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	secretVA, secret := sys.SecretAddr()
	res, err := sys.LeakKernelMemory(secretVA, 512)
	if err != nil {
		t.Fatal(err)
	}
	if res.AccuracyPct < 95 {
		t.Fatalf("MDS leak accuracy %.2f%%", res.AccuracyPct)
	}
	if !bytes.Equal(res.Leaked[:256], secret[:256]) && res.AccuracyPct == 100 {
		t.Fatal("perfect accuracy but mismatching bytes — accounting bug")
	}
}

func TestMDSLeakNeedsExecuteWindow(t *testing.T) {
	// On Zen 3 the nested Phantom window has no execute budget; the leak
	// gets no signal.
	sys, err := NewSystem(Zen3, SystemConfig{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	secretVA, _ := sys.SecretAddr()
	// Skip the chain (physmap cannot be broken on Zen 3 anyway) and call
	// the internal stage with ground truth via the public wrapper: the
	// end-to-end call must fail at the physmap stage.
	if _, err := sys.LeakKernelMemory(secretVA, 32); err == nil {
		t.Fatal("MDS leak chain succeeded on Zen3")
	}
}

func TestMitigationsO4O5(t *testing.T) {
	m2, err := RunMitigations(context.Background(), Zen2, 19)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.SuppressSupported {
		t.Fatal("Zen2 must support SuppressBPOnNonBr")
	}
	if !m2.BaselineReach.EX {
		t.Error("Zen2 baseline non-branch victim should reach EX")
	}
	if m2.SuppressReach.EX {
		t.Error("SuppressBPOnNonBr did not stop transient execution")
	}
	if !m2.SuppressReach.IF || !m2.SuppressReach.ID {
		t.Errorf("O4 violated: reach with MSR = %v, want IF+ID", m2.SuppressReach)
	}
	if !m2.BranchVictimReach.EX {
		t.Error("branch victims should still reach EX with the MSR set")
	}
	if m2.OverheadPct <= 0 || m2.OverheadPct > 3 {
		t.Errorf("SuppressBPOnNonBr overhead %.2f%%, want (0, 3]", m2.OverheadPct)
	}
	if !m2.IBPBBlocksPhantom {
		t.Error("IBPB-on-entry failed to block Phantom")
	}

	m1, err := RunMitigations(context.Background(), Zen1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m1.SuppressSupported {
		t.Error("Zen1 must not support SuppressBPOnNonBr (Section 8.1)")
	}

	m4, err := RunMitigations(context.Background(), Zen4, 21)
	if err != nil {
		t.Fatal(err)
	}
	if !m4.AutoIBRSSupported || !m4.AutoIBRSLeavesIF || !m4.AutoIBRSBlocksID {
		t.Errorf("O5 violated: %+v", m4)
	}

	// The hypothetical Section 8.1 frontend stops every Phantom stage —
	// and costs an order of magnitude more than SuppressBPOnNonBr, the
	// trade-off behind the paper's "unfeasible in practice" judgment.
	if !m2.WaitForDecodeBlocksAll {
		t.Error("wait-for-decode frontend did not block all stages")
	}
	if m2.WaitForDecodeOverheadPct < 5 {
		t.Errorf("wait-for-decode overhead %.2f%%, expected substantial", m2.WaitForDecodeOverheadPct)
	}
	if m2.WaitForDecodeOverheadPct < m2.OverheadPct*5 {
		t.Errorf("wait-for-decode (%.2f%%) not clearly costlier than SuppressBPOnNonBr (%.2f%%)",
			m2.WaitForDecodeOverheadPct, m2.OverheadPct)
	}
}

func TestKASLRWorksDespiteAutoIBRS(t *testing.T) {
	// Zen 4 boots with AutoIBRS enabled (threat model), yet P1-based
	// image KASLR still succeeds — the paper's headline for O5.
	sys, err := NewSystem(Zen4, SystemConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.BreakImageKASLR()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("image KASLR failed on Zen4 with AutoIBRS")
	}
}

func TestAttackImpossibleOnIntel(t *testing.T) {
	// Intel parts tag BTB entries with the privilege mode; the
	// cross-privilege attack context cannot be built.
	sys, err := NewSystem(Intel13, SystemConfig{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BreakImageKASLR(); err == nil {
		t.Fatal("cross-privilege attack built on Intel profile")
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		sys, err := NewSystem(Zen2, SystemConfig{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.BreakImageKASLR()
		if err != nil {
			t.Fatal(err)
		}
		return res.Guess, res.Seconds
	}
	g1, s1 := run()
	g2, s2 := run()
	if g1 != g2 || s1 != s2 {
		t.Fatalf("same seed diverged: %#x/%f vs %#x/%f", g1, s1, g2, s2)
	}
}

func TestMicroarchPlumbing(t *testing.T) {
	if len(AllMicroarchs()) != 8 || len(AMDMicroarchs()) != 4 {
		t.Fatal("microarch lists wrong")
	}
	for _, a := range AllMicroarchs() {
		if a.ModelName() == "" {
			t.Errorf("%s has no model name", a)
		}
		if _, err := a.profile(); err != nil {
			t.Errorf("%s: %v", a, err)
		}
	}
	if _, err := NewSystem("pentium", SystemConfig{}); err == nil {
		t.Fatal("bogus microarch accepted")
	}
}

func TestFormatters(t *testing.T) {
	tb, err := RunTable1(Zen2, Table1Options{Seed: 30, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "Table 1") {
		t.Error("Table1 formatter broken")
	}
	rows := []Table2Row{{Arch: Zen2, Model: "m", AccuracyPct: 93, BitsPerSec: 100, Runs: 1}}
	if !strings.Contains(FormatTable2("Table 2", rows), "93.00") {
		t.Error("Table2 formatter broken")
	}
	dr := []DerandRow{{Arch: Zen2, Model: "m", AccuracyPct: 97, MedianSeconds: 4, Runs: 1}}
	if !strings.Contains(FormatDerand("Table 3", dr), "97") {
		t.Error("Derand formatter broken")
	}
}

func TestGenerateReport(t *testing.T) {
	var buf bytes.Buffer
	err := GenerateReport(&buf, ReportOptions{
		Seed: 40, Runs: 2, Bits: 128,
		Archs:           []Microarch{Zen2, Intel13},
		MitigationArchs: []Microarch{Zen2},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Figure 6", "Table 2", "Tables 3-5", "Section 7.4",
		"Spectre-V2 baseline", "Mitigations", "O4", "paper",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

func TestRelativeTimeShape(t *testing.T) {
	// The paper's time relation: physmap KASLR (ascending scan over
	// 25,600 slots, stopping at the randomized base) takes far longer
	// than image KASLR (fixed 488-slot scan) — ~100 s vs ~4 s published.
	// A single run's physmap time is slot-dependent, so compare medians
	// over several reboots, as the paper's tables do.
	var imgTimes, pmTimes []float64
	for r := 0; r < 5; r++ {
		sys, err := NewSystem(Zen2, SystemConfig{Seed: 50 + int64(r)*7})
		if err != nil {
			t.Fatal(err)
		}
		img, err := sys.BreakImageKASLR()
		if err != nil {
			t.Fatal(err)
		}
		pm, err := sys.BreakPhysmapKASLR(img.Guess)
		if err != nil {
			t.Fatal(err)
		}
		if !img.Correct || !pm.Correct {
			t.Fatalf("chain failed at reboot %d", r)
		}
		imgTimes = append(imgTimes, img.Seconds)
		pmTimes = append(pmTimes, pm.Seconds)
	}
	imgMed := median(imgTimes)
	pmMed := median(pmTimes)
	if pmMed <= imgMed {
		t.Fatalf("median physmap scan (%.4fs) not slower than image scan (%.4fs)", pmMed, imgMed)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestNegativeCountsRejected pins the shared count guard: a negative
// count, or one over its ceiling, is a clean error from every entry
// point, never a panic inside a sweep. The rows past a ceiling, and the
// rows for RunTable1 and LeakKernelMemory, run under a cancelled
// context: a guard that came after the simulation started would fail
// them with the context's error instead of the guard's.
func TestNegativeCountsRejected(t *testing.T) {
	archs := []Microarch{Zen2}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	sys, err := NewSystem(Zen2, SystemConfig{Seed: 1, Context: done})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"RunTable2Fetch runs", func() error { _, err := RunTable2Fetch(archs, Table2Options{Runs: -1}); return err }, "negative runs"},
		{"RunTable2Fetch bits", func() error { _, err := RunTable2Fetch(archs, Table2Options{Bits: -8}); return err }, "negative bits"},
		{"RunTable2Execute runs", func() error { _, err := RunTable2Execute(archs, Table2Options{Runs: -2}); return err }, "negative runs"},
		{"RunTable3", func() error { _, err := RunTable3(archs, DerandOptions{Runs: -1}); return err }, "negative runs"},
		{"RunTable4", func() error { _, err := RunTable4(archs, DerandOptions{Runs: -1}); return err }, "negative runs"},
		{"RunTable5", func() error { _, err := RunTable5(DerandOptions{Runs: -1}); return err }, "negative runs"},
		{"RunMDSExperiment runs", func() error { _, err := RunMDSExperiment(Zen2, MDSOptions{Runs: -1}); return err }, "negative runs"},
		{"RunMDSExperiment bytes", func() error { _, err := RunMDSExperiment(Zen2, MDSOptions{Bytes: -5}); return err }, "negative bytes"},
		{"RunFig7", func() error { _, err := RunFig7(Zen3, Fig7Options{Samples: -1}); return err }, "negative samples"},
		{"RunFig7Sweep", func() error { _, err := RunFig7Sweep([]Microarch{Zen3}, Fig7Options{Samples: -1}); return err }, "negative samples"},
		{"GenerateReport runs", func() error { return GenerateReport(&bytes.Buffer{}, ReportOptions{Runs: -1}) }, "negative runs"},
		{"GenerateReport bits", func() error { return GenerateReport(&bytes.Buffer{}, ReportOptions{Bits: -1}) }, "negative bits"},
		{"GenerateReportSection", func() error {
			return GenerateReportSection(&bytes.Buffer{}, ReportSectionTitles()[0], ReportOptions{Runs: -3})
		}, "negative runs"},
		{"RunTable1 trials", func() error { _, err := RunTable1(Zen2, Table1Options{Context: done, Trials: -1}); return err }, "negative trials"},
		{"LeakKernelMemory bytes", func() error { _, err := sys.LeakKernelMemory(0, -1); return err }, "negative bytes"},

		{"RunTable1 trials ceiling", func() error {
			_, err := RunTable1(Zen2, Table1Options{Context: done, Trials: Table1Trials.Max + 1})
			return err
		}, "ceiling"},
		{"RunFig7 samples ceiling", func() error {
			_, err := RunFig7(Zen3, Fig7Options{Context: done, Samples: Fig7Samples.Max + 1})
			return err
		}, "ceiling"},
		{"RunFig7Sweep samples ceiling", func() error {
			_, err := RunFig7Sweep([]Microarch{Zen3}, Fig7Options{Context: done, Samples: Fig7Samples.Max + 1})
			return err
		}, "ceiling"},
		{"RunTable2Fetch bits ceiling", func() error {
			_, err := RunTable2Fetch(archs, Table2Options{Context: done, Bits: Table2Bits.Max + 1})
			return err
		}, "ceiling"},
		{"RunTable2Execute runs ceiling", func() error {
			_, err := RunTable2Execute(archs, Table2Options{Context: done, Runs: Table2Runs.Max + 1})
			return err
		}, "ceiling"},
		{"RunTable3 runs ceiling", func() error {
			_, err := RunTable3(archs, DerandOptions{Context: done, Runs: Table3Runs.Max + 1})
			return err
		}, "ceiling"},
		{"RunTable4 runs ceiling", func() error {
			_, err := RunTable4(archs, DerandOptions{Context: done, Runs: Table4Runs.Max + 1})
			return err
		}, "ceiling"},
		{"RunTable5 runs ceiling", func() error {
			_, err := RunTable5(DerandOptions{Context: done, Runs: Table5Runs.Max + 1})
			return err
		}, "ceiling"},
		{"RunMDSExperiment runs ceiling", func() error {
			_, err := RunMDSExperiment(Zen2, MDSOptions{Context: done, Runs: MDSRuns.Max + 1})
			return err
		}, "ceiling"},
		{"RunMDSExperiment bytes ceiling", func() error {
			_, err := RunMDSExperiment(Zen2, MDSOptions{Context: done, Bytes: MDSBytes.Max + 1})
			return err
		}, "ceiling"},
		{"LeakKernelMemory bytes ceiling", func() error { _, err := sys.LeakKernelMemory(0, MDSBytes.Max+1); return err }, "ceiling"},
		{"GenerateReport runs ceiling", func() error {
			return GenerateReport(&bytes.Buffer{}, ReportOptions{Context: done, Runs: ReportRuns.Max + 1})
		}, "ceiling"},
		{"GenerateReportSection bits ceiling", func() error {
			return GenerateReportSection(&bytes.Buffer{}, ReportSectionTitles()[2], ReportOptions{Context: done, Bits: ReportBits.Max + 1})
		}, "ceiling"},
	}
	for _, c := range cases {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestTable5CancelledMidReboot pins that a run's context reaches inside
// the jobs already running: every reboot's machine binds to it, so a
// cancel 50 ms in stops the reboots mid-scan. With Runs: 1 both jobs
// have started by then, so no between-job check can catch it.
func TestTable5CancelledMidReboot(t *testing.T) {
	for _, runs := range []int{1, 100} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		rows, err := RunTable5(DerandOptions{Context: ctx, Seed: 1, Runs: runs})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Runs %d: cancelled RunTable5 = %v, %v; want context.Canceled", runs, rows, err)
		}
		t.Logf("Runs %d: returned %v after %v", runs, err, time.Since(start))
	}
}

// TestMDSCancelledMidLeak: a reboot cancelled while it leaks is not a
// zero-signal run — the experiment fails with the context's error
// instead of reporting "signal in 0/1 runs". The cancel lands once the
// leak stage has started, which the telemetry hub's per-experiment
// counter reveals.
func TestMDSCancelledMidLeak(t *testing.T) {
	leaks := telemetry.Enable(telemetry.Config{}).Registry().Counter("experiment_mds_leak")
	defer telemetry.Disable() //nolint:errcheck // no sinks to flush
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for leaks.Value() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rep, err := RunMDSExperiment(Zen2, MDSOptions{Context: ctx, Seed: 1, Runs: 1})
	cancel()
	<-stopped
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunMDSExperiment = %v, %v; want context.Canceled", rep, err)
	}
	t.Logf("returned %v", err)
}
