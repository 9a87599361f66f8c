package phantom

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"phantom/internal/pipeline"
)

// The sweep engine's contract: per-run seeds are derived arithmetically
// from the job coordinates, so a parallel sweep must render the very
// bytes the sequential one does, and the same seed must render the same
// bytes twice. These tests pin that for every multi-run experiment.

func TestTable2SweepDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rows, err := RunTable2Fetch(AMDMicroarchs(), Table2Options{Seed: 60, Bits: 128, Runs: 4, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable2("Table 2 (top) — fetch covert channel (P1)", rows)
	}
	seq := render(1)
	if par := render(8); par != seq {
		t.Errorf("parallel Table 2 differs from sequential:\n--- jobs=1\n%s--- jobs=8\n%s", seq, par)
	}
	if again := render(1); again != seq {
		t.Errorf("same-seed Table 2 runs differ:\n%s\nvs\n%s", seq, again)
	}
}

func TestTable2ExecuteSweepDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rows, err := RunTable2Execute([]Microarch{Zen1, Zen2}, Table2Options{Seed: 61, Bits: 128, Runs: 3, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable2("Table 2 (bottom) — execute covert channel (P2)", rows)
	}
	if seq, par := render(1), render(8); par != seq {
		t.Errorf("parallel execute channel differs from sequential:\n%s\nvs\n%s", seq, par)
	}
}

func TestTable3SweepDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rows, err := RunTable3([]Microarch{Zen2, Zen3, Zen4}, DerandOptions{Seed: 62, Runs: 4, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return FormatDerand("Table 3", rows)
	}
	seq := render(1)
	if par := render(8); par != seq {
		t.Errorf("parallel Table 3 differs from sequential:\n%s\nvs\n%s", seq, par)
	}
	if again := render(8); again != seq {
		t.Error("repeated parallel Table 3 runs differ")
	}
}

func TestTable4SweepDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rows, err := RunTable4([]Microarch{Zen1, Zen2}, DerandOptions{Seed: 63, Runs: 3, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return FormatDerand("Table 4", rows)
	}
	if seq, par := render(1), render(8); par != seq {
		t.Errorf("parallel Table 4 differs from sequential:\n%s\nvs\n%s", seq, par)
	}
}

func TestTable5SweepDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rows, err := RunTable5(DerandOptions{Seed: 64, Runs: 2, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return FormatDerand("Table 5", rows)
	}
	if seq, par := render(1), render(8); par != seq {
		t.Errorf("parallel Table 5 differs from sequential:\n%s\nvs\n%s", seq, par)
	}
}

func TestMDSSweepDeterminism(t *testing.T) {
	render := func(jobs int) string {
		rep, err := RunMDSExperiment(Zen2, MDSOptions{Seed: 65, Runs: 3, Bytes: 256, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if seq, par := render(1), render(8); par != seq {
		t.Errorf("parallel MDS report differs from sequential:\n%s\nvs\n%s", seq, par)
	}
}

func TestFig6SweepMatchesSerial(t *testing.T) {
	archs := []Microarch{Zen2, Zen4}
	swept, err := RunFig6Sweep(context.Background(), archs, 66, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(archs) {
		t.Fatalf("%d series for %d archs", len(swept), len(archs))
	}
	serial, err := RunFig6Sweep(context.Background(), archs, 66, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, arch := range archs {
		if swept[i].Arch != arch || !reflect.DeepEqual(swept[i], serial[i]) {
			t.Errorf("%s: swept series differs from serial run", arch)
		}
	}
}

// The predecode cache (internal/pipeline/predecode.go) is a pure fetch
// memoisation: it must never change what any experiment renders. These
// tests pin byte-identical output between the cached fast path and the
// byte-at-a-time reference path for each experiment family. runCtx is
// the run context that selects the path.
func runCtx(reference bool) context.Context {
	if reference {
		return pipeline.WithReferenceFetch(context.Background())
	}
	return context.Background()
}

func TestTable1PredecodeParity(t *testing.T) {
	render := func(disable bool) string {
		tab, err := RunTable1(Zen2, Table1Options{Context: runCtx(disable), Seed: 70, Trials: 3})
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	if on, off := render(false), render(true); on != off {
		t.Errorf("Table 1 changes with the predecode cache:\n--- cache on\n%s--- cache off\n%s", on, off)
	}
}

func TestTable2PredecodeParity(t *testing.T) {
	render := func(disable bool) string {
		rows, err := RunTable2Fetch([]Microarch{Zen2}, Table2Options{Context: runCtx(disable), Seed: 71, Bits: 128, Runs: 2, Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable2("Table 2 (top) — fetch covert channel (P1)", rows)
	}
	if on, off := render(false), render(true); on != off {
		t.Errorf("Table 2 changes with the predecode cache:\n--- cache on\n%s--- cache off\n%s", on, off)
	}
}

func TestTable3PredecodeParity(t *testing.T) {
	render := func(disable bool) string {
		rows, err := RunTable3([]Microarch{Zen3}, DerandOptions{Context: runCtx(disable), Seed: 72, Runs: 3, Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		return FormatDerand("Table 3", rows)
	}
	if on, off := render(false), render(true); on != off {
		t.Errorf("Table 3 changes with the predecode cache:\n--- cache on\n%s--- cache off\n%s", on, off)
	}
}

func TestMDSPredecodeParity(t *testing.T) {
	render := func(disable bool) string {
		rep, err := RunMDSExperiment(Zen2, MDSOptions{Context: runCtx(disable), Seed: 73, Runs: 2, Bytes: 256, Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if on, off := render(false), render(true); on != off {
		t.Errorf("MDS report changes with the predecode cache:\n--- cache on\n%s--- cache off\n%s", on, off)
	}
}

// TestReportPredecodeParity covers what the per-experiment parity tests
// above do not reach — Figure 6, Tables 4-5, the Spectre-V2 baseline and
// the mitigations — by rendering the whole report on both fetch paths.
func TestReportPredecodeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the report twice")
	}
	render := func(reference bool) []byte {
		var buf bytes.Buffer
		err := GenerateReport(&buf, ReportOptions{
			Context: runCtx(reference), Seed: 68, Runs: 1, Bits: 64,
			Archs:           []Microarch{Zen2},
			MitigationArchs: []Microarch{Zen2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if on, off := render(false), render(true); !bytes.Equal(on, off) {
		t.Errorf("report changes with the predecode cache:\n--- cache on\n%s--- cache off\n%s", on, off)
	}
}

func TestReportSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the report twice")
	}
	render := func(jobs int) []byte {
		var buf bytes.Buffer
		err := GenerateReport(&buf, ReportOptions{
			Seed: 67, Runs: 2, Bits: 128, Jobs: jobs,
			Archs:           []Microarch{Zen2, Zen4},
			MitigationArchs: []Microarch{Zen2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := render(1), render(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("parallel report differs from sequential (%d vs %d bytes)", len(seq), len(par))
	}
}
