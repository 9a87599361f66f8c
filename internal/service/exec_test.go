package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phantom/internal/store"
	"phantom/internal/sweep"
	"phantom/internal/telemetry"
)

// TestExecuteAllExperiments smoke-runs every servable experiment at
// tiny scale through the shared rendering engine and sanity-checks the
// text each one produces. Correctness of the numbers is pinned by the
// package tests and goldens; this test is about the serving surface —
// every catalog entry must actually execute and render.
func TestExecuteAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cases := []struct {
		req  Request
		want string // substring the rendering must contain
	}{
		{Request{Experiment: "table1", Archs: []string{"zen2"}, Trials: 2}, "Table 1"},
		{Request{Experiment: "fig6", Archs: []string{"zen2"}, Seed: 1}, "offset"},
		{Request{Experiment: "fig7", Archs: []string{"zen3"}, Seed: 9, Samples: 22}, "BTB"},
		{Request{Experiment: "covert", Archs: []string{"zen2"}, Bits: 16, Runs: 1}, "Table 2"},
		{Request{Experiment: "kaslr", Archs: []string{"zen2"}, Runs: 1}, "Table 3"},
		{Request{Experiment: "physmap", Archs: []string{"zen1"}, Runs: 1}, "Table 4"},
		{Request{Experiment: "physaddr", Runs: 1}, "Table 5"},
		{Request{Experiment: "mds", Archs: []string{"zen2"}, Runs: 1, Bytes: 64}, "MDS"},
		{Request{Experiment: "mitigations", Archs: []string{"zen1"}}, "mitigation"},
		{Request{Experiment: "sls", Archs: []string{"zen1"}}, "Straight-line speculation"},
		{Request{Experiment: "chain", Archs: []string{"zen2"}}, "Full exploit chain"},
		{Request{Experiment: "report", Runs: 1, Bits: 16}, "Phantom reproduction report"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := Execute(context.Background(), &buf, c.req, 0); err != nil {
			t.Errorf("%s: %v", c.req.Experiment, err)
			continue
		}
		if out := buf.String(); !strings.Contains(strings.ToLower(out), strings.ToLower(c.want)) {
			t.Errorf("%s: rendering does not mention %q:\n%s", c.req.Experiment, c.want, out)
		}
	}
}

// TestExecuteCancellationPropagates checks ctx reaches the experiment
// layer: a cancelled context aborts mid-experiment rather than running
// to completion.
func TestExecuteCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	// physaddr takes ~500ms at runs=1; a 5ms deadline must cut it off.
	err := Execute(ctx, &buf, Request{Experiment: "physaddr", Runs: 1}, 0)
	if err == nil {
		t.Fatal("Execute ran to completion under an expired deadline")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: deadline never fired")
	}
}

// TestExecuteSurvivesJobPanic: a bit count no slice can hold is
// refused with a 400 before any sweep job starts, and a request whose
// sweep job panics anyway fails with the server's one-line 500 while
// the process goes on.
func TestExecuteSurvivesJobPanic(t *testing.T) {
	jobs := telemetry.Enable(telemetry.Config{}).Registry().Counter("sweep_jobs_done")
	defer telemetry.Disable() //nolint:errcheck // no sinks to flush
	huge := Request{Experiment: "covert", Archs: []string{"zen1"}, Bits: 1 << 62, Runs: 1}
	if err := Execute(context.Background(), io.Discard, huge, 0); err == nil || !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("Execute returned %v, want the bits ceiling", err)
	}
	_, aerr := NewServer(Config{Workers: 1}).do(context.Background(), huge)
	if aerr == nil || aerr.status != http.StatusBadRequest {
		t.Fatalf("served: got %+v, want a 400", aerr)
	}
	if n := jobs.Value(); n != 0 {
		t.Fatalf("%d sweep jobs ran for a refused request", n)
	}

	s := NewServer(Config{Workers: 1})
	s.exec = func(ctx context.Context, _ io.Writer, _ Request, _ int) error {
		_, err := sweep.Run(ctx, 1, sweep.Options{}, func(context.Context, int) (int, error) { panic("job panic") })
		return err
	}
	_, aerr = s.do(context.Background(), Request{Experiment: "kaslr"})
	if aerr == nil || aerr.status != http.StatusInternalServerError || strings.Contains(aerr.msg, "\n") {
		t.Fatalf("served: got %+v, want a one-line 500", aerr)
	}
}

// TestServedDeadlineMidJob: a real evaluation whose deadline expires
// while its machines run answers 504 and leaves nothing behind. Before
// the context reached the machines, these runners finished under an
// expired deadline and their output was cached and stored under the
// request's key as if it were the answer.
func TestServedDeadlineMidJob(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewServer(Config{Workers: 1, BaseTimeout: 20 * time.Millisecond, Store: st})
	for _, req := range []Request{
		{Experiment: "chain"},
		{Experiment: "mds", Runs: 1},
		{Experiment: "mitigations", Archs: []string{"zen2"}},
	} {
		_, aerr := s.do(context.Background(), req)
		if aerr == nil || aerr.status != http.StatusGatewayTimeout {
			t.Errorf("%s: got %+v, want 504", req.Experiment, aerr)
		}
		key := mustNormalize(t, req).Key()
		if _, ok := s.cache.Get(key); ok {
			t.Errorf("%s: timed-out evaluation was cached", req.Experiment)
		}
		if st.Has(key) {
			t.Errorf("%s: timed-out evaluation was stored", req.Experiment)
		}
	}
}
