package phantom

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"phantom/internal/telemetry"
)

// The telemetry hub's contract, the same shape as the predecode cache's
// (TestTable1PredecodeParity and friends): it observes the harness and
// charges nothing to the model. Every experiment must render the very
// bytes with telemetry off, on, or sampled — including on a multi-worker
// sweep, which is what `go test -race` exercises here. A diff means the
// telemetry path perturbed a modeled structure, a seed, or an iteration
// order.

// parityCase renders one experiment with an 8-worker sweep where the
// experiment supports one.
type parityCase struct {
	name   string
	render func(t *testing.T) string
}

func telemetryParityCases() []parityCase {
	return []parityCase{
		{"table1", func(t *testing.T) string {
			tab, err := RunTable1(Zen2, Table1Options{Seed: 80, Trials: 3})
			if err != nil {
				t.Fatal(err)
			}
			return tab.String()
		}},
		{"table2_fetch", func(t *testing.T) string {
			rows, err := RunTable2Fetch([]Microarch{Zen2}, Table2Options{Seed: 81, Bits: 128, Runs: 2, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return FormatTable2("Table 2 (top) — fetch covert channel (P1)", rows)
		}},
		{"table3", func(t *testing.T) string {
			rows, err := RunTable3([]Microarch{Zen3}, DerandOptions{Seed: 82, Runs: 3, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return FormatDerand("Table 3", rows)
		}},
		{"table4", func(t *testing.T) string {
			rows, err := RunTable4([]Microarch{Zen1}, DerandOptions{Seed: 83, Runs: 2, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return FormatDerand("Table 4", rows)
		}},
		{"table5", func(t *testing.T) string {
			rows, err := RunTable5(DerandOptions{Seed: 84, Runs: 2, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return FormatDerand("Table 5", rows)
		}},
		{"fig6", func(t *testing.T) string {
			series, err := RunFig6Sweep(context.Background(), []Microarch{Zen2}, 85, 8)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(series)
		}},
		{"fig7", func(t *testing.T) string {
			fns, err := RunFig7Sweep([]Microarch{Zen3}, Fig7Options{Seed: 86, Samples: 5, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(fns)
		}},
		{"mds", func(t *testing.T) string {
			rep, err := RunMDSExperiment(Zen2, MDSOptions{Seed: 87, Runs: 2, Bytes: 256, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			return rep.String()
		}},
	}
}

// withTelemetry renders under an active hub and returns the output plus
// the run log the hub produced, tearing the hub down before returning.
func withTelemetry(t *testing.T, sampleEvery int, render func(t *testing.T) string) (string, []byte) {
	t.Helper()
	var runLog, progress bytes.Buffer
	telemetry.Enable(telemetry.Config{
		RunLog:      &runLog,
		Progress:    &progress,
		SampleEvery: sampleEvery,
		Label:       t.Name(),
	})
	out := render(t)
	if err := telemetry.Disable(); err != nil {
		t.Fatalf("telemetry.Disable: %v", err)
	}
	return out, runLog.Bytes()
}

func TestTelemetryParity(t *testing.T) {
	for _, c := range telemetryParityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if telemetry.Active() != nil {
				t.Fatal("hub already active at test start")
			}
			baseline := c.render(t)

			on, runLog := withTelemetry(t, 1, c.render)
			if on != baseline {
				t.Errorf("output changes with telemetry on:\n--- off\n%s--- on\n%s", baseline, on)
			}
			// The invariant is only meaningful if telemetry actually
			// observed the run: the hub must have produced records.
			if len(runLog) == 0 {
				t.Error("telemetry-on run produced an empty run log")
			}

			sampled, _ := withTelemetry(t, 7, c.render)
			if sampled != baseline {
				t.Errorf("output changes with sampled telemetry:\n--- off\n%s--- sampled\n%s", baseline, sampled)
			}
		})
	}
}

// TestReportTelemetryParity pins the full report document — every table,
// figure and sweep in one pass — with and without an active hub.
func TestReportTelemetryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the report twice")
	}
	render := func(t *testing.T) string {
		var buf bytes.Buffer
		err := GenerateReport(&buf, ReportOptions{
			Seed: 88, Runs: 2, Bits: 128, Jobs: 8,
			Archs:           []Microarch{Zen2},
			MitigationArchs: []Microarch{Zen2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	baseline := render(t)
	on, runLog := withTelemetry(t, 1, render)
	if on != baseline {
		t.Error("report changes with telemetry on")
	}
	if len(runLog) == 0 {
		t.Error("telemetry-on report produced an empty run log")
	}
}

// TestTelemetryDisabledIsFree pins the off-path contract: with no active
// hub, experiment code sees nil handles everywhere and the run log and
// progress sinks stay untouched.
func TestTelemetryDisabledIsFree(t *testing.T) {
	if telemetry.Active() != nil {
		t.Fatal("hub unexpectedly active")
	}
	if s := telemetry.Sweep("off", 3); s != nil {
		t.Errorf("Sweep returned %v with no active hub", s)
	}
	if stats, _ := telemetry.MachineStats(); stats != nil {
		t.Errorf("MachineStats returned %v with no active hub", stats)
	}
	// All of these must be no-ops on nil receivers rather than panics.
	var sc *telemetry.SweepScope
	sc.SweepStart(1, 1)
	sc.JobStart(0, 0)
	sc.JobDone(0, 0, 0, nil)
	sc.SweepEnd()
}
