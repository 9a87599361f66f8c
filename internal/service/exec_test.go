package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phantom/internal/store"
	"phantom/internal/sweep"
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

// TestExecuteSurvivesJobPanic: a request whose sweep job panics fails
// with an error, the server's one-line 500, and the process goes on.
// The bit count here is one no slice can hold, so the job's make panics
// before it allocates anything.
func TestExecuteSurvivesJobPanic(t *testing.T) {
	req := Request{Experiment: "covert", Archs: []string{"zen1"}, Bits: 1 << 62, Runs: 1}
	var pe *sweep.PanicError
	if err := Execute(context.Background(), io.Discard, req, 0); !errors.As(err, &pe) {
		t.Fatalf("Execute returned %v, want a sweep job's *PanicError", err)
	}
	_, aerr := NewServer(Config{Workers: 1}).do(context.Background(), req)
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
