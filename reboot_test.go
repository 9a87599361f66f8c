package phantom

import (
	"context"
	"reflect"
	"testing"

	"phantom/internal/pipeline"
	"phantom/internal/stats"
)

// TestRebootsKeepConfigurationsApart: in a one-worker reboot sweep over
// Table 5's two machines, every reboot of a configuration after its
// first runs on the machine its first built, the two configurations
// never share one, and each rebooted system equals one NewSystem boots
// on a machine of its own.
func TestRebootsKeepConfigurationsApart(t *testing.T) {
	const runs = 3
	seed := func(r int) int64 { return int64(7 + r) }
	var machines []*pipeline.Machine
	_, err := rebootGrid(context.Background(), "reboots", table5Configs, runs, 1, seed,
		func(sys *System) (struct{}, error) {
			i := len(machines)
			c, r := i/runs, i%runs
			machines = append(machines, sys.k.M)
			if r > 0 && sys.k.M != machines[i-r] {
				t.Errorf("reboot %d of %s did not reuse its configuration's machine", r, table5Configs[c].arch)
			}
			fresh, err := NewSystem(table5Configs[c].arch, SystemConfig{Seed: seed(r), PhysBytes: table5Configs[c].physBytes})
			if err != nil {
				return struct{}{}, err
			}
			if sys.KernelImageBase() != fresh.KernelImageBase() || sys.PhysmapBase() != fresh.PhysmapBase() ||
				sys.k.M.Phys.Size() != fresh.k.M.Phys.Size() || !reflect.DeepEqual(sys.k.Secret, fresh.k.Secret) {
				t.Errorf("reboot %d of %s differs from a fresh boot", r, table5Configs[c].arch)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2*runs || machines[0] == machines[runs] {
		t.Error("the 8 GB and 64 GB configurations share a machine")
	}
}

// TestRebootSweepsMatchFreshMachines: Tables 2-5 and the MDS leak at
// one worker, where every run of a configuration reboots the machine
// the previous run used, equal the same runs each on a machine of its
// own (a one-run call at that run's seed builds a new one).
func TestRebootSweepsMatchFreshMachines(t *testing.T) {
	const runs = 3
	derand := func(name string, table func(DerandOptions) ([]DerandRow, error), seed, step int64) {
		t.Helper()
		got, err := table(DerandOptions{Seed: seed, Runs: runs, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		outcomes := make([][]derandRun, len(got))
		for r := int64(0); r < runs; r++ {
			one, err := table(DerandOptions{Seed: seed + r*step, Runs: 1})
			if err != nil {
				t.Fatal(err)
			}
			for c, row := range one {
				outcomes[c] = append(outcomes[c], derandRun{correct: row.AccuracyPct == 100, seconds: row.MedianSeconds})
			}
		}
		for c, row := range got {
			want := foldDerand(row.Arch, outcomes[c])
			want.Memory = row.Memory
			if row != want {
				t.Errorf("%s %s: one machine per configuration %+v, fresh machines %+v", name, row.Arch, row, want)
			}
		}
	}
	derand("Table 3", func(o DerandOptions) ([]DerandRow, error) { return RunTable3([]Microarch{Zen2, Zen3, Zen4}, o) }, 70, 31)
	derand("Table 4", func(o DerandOptions) ([]DerandRow, error) { return RunTable4([]Microarch{Zen1, Zen2}, o) }, 71, 37)
	derand("Table 5", RunTable5, 72, 41)

	archs := []Microarch{Zen2, Zen4}
	got, err := RunTable2Fetch(archs, Table2Options{Seed: 73, Bits: 64, Runs: runs, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, arch := range archs {
		var accs, rates []float64
		for r := int64(0); r < runs; r++ {
			one, err := RunTable2Fetch([]Microarch{arch}, Table2Options{Seed: 73 + r*101, Bits: 64, Runs: 1})
			if err != nil {
				t.Fatal(err)
			}
			accs, rates = append(accs, one[0].AccuracyPct), append(rates, one[0].BitsPerSec)
		}
		want := Table2Row{Arch: arch, Model: arch.ModelName(), AccuracyPct: stats.Median(accs), BitsPerSec: stats.Median(rates), Runs: runs}
		if got[i] != want {
			t.Errorf("Table 2 %s: one machine %+v, fresh machines %+v", arch, got[i], want)
		}
	}

	rep, err := RunMDSExperiment(Zen2, MDSOptions{Seed: 74, Runs: runs, Bytes: 8, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := &MDSReport{Arch: Zen2, Runs: runs}
	var accs, rates []float64
	for r := int64(0); r < runs; r++ {
		one, err := RunMDSExperiment(Zen2, MDSOptions{Seed: 74 + r*43, Runs: 1, Bytes: 8})
		if err != nil {
			t.Fatal(err)
		}
		if one.SignalRuns == 1 {
			want.SignalRuns++
			accs, rates = append(accs, one.AccuracyPct), append(rates, one.MedianBytesSec)
		}
	}
	want.AccuracyPct, want.MedianBytesSec = stats.Median(accs), stats.Median(rates)
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("MDS: one machine %+v, fresh machines %+v", rep, want)
	}
}
