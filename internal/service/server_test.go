package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phantom"
	"phantom/internal/store"
	"phantom/internal/telemetry"
)

// stubExec is a controllable evaluation engine: deterministic output
// derived from the request, optional blocking until released, and
// cancellation accounting — everything the serving-layer tests need
// without paying for simulations.
type stubExec struct {
	block     chan struct{} // non-nil: exec waits for close or ctx
	started   atomic.Int64
	cancelled atomic.Int64
}

func (s *stubExec) fn(ctx context.Context, w io.Writer, req Request, jobs int) error {
	s.started.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			s.cancelled.Add(1)
			return ctx.Err()
		}
	}
	fmt.Fprintf(w, "%s output archs=%v seed=%d\n", req.Experiment, req.Archs, req.Seed)
	return nil
}

func newTestServer(cfg Config, stub *stubExec) *Server {
	s := NewServer(cfg)
	s.exec = stub.fn
	return s
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

// TestCoalescing pins the singleflight contract end to end: concurrent
// identical requests cost exactly one evaluation and all receive the
// same content-addressed result.
func TestCoalescing(t *testing.T) {
	stub := &stubExec{block: make(chan struct{})}
	s := newTestServer(Config{Workers: 2, QueueDepth: 16}, stub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	type reply struct {
		status int
		res    Result
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, data := postJSON(t, ts.URL, `{"experiment":"kaslr","seed":7}`)
			var res Result
			json.Unmarshal(data, &res) //nolint:errcheck // zero value fails the asserts
			replies <- reply{resp.StatusCode, res}
		}()
	}
	// Every request has passed the cache check (and therefore joined
	// the one flight) once all eight misses are counted; only then let
	// the single evaluation finish.
	waitFor(t, "8 cache misses", func() bool { return s.Stats().CacheMisses.Load() == n })
	close(stub.block)

	var ids, outputs []string
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		ids = append(ids, r.res.ID)
		outputs = append(outputs, r.res.Output)
	}
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] || outputs[i] != outputs[0] {
			t.Fatalf("request %d diverged: id %s vs %s", i, ids[i], ids[0])
		}
	}
	if sims := s.Stats().Simulations.Load(); sims != 1 {
		t.Errorf("8 identical concurrent requests ran %d simulations, want 1", sims)
	}
	if co := s.Stats().Coalesced.Load(); co != n-1 {
		t.Errorf("coalesced = %d, want %d", co, n-1)
	}
}

// TestCacheHitPath checks the second identical request is served from
// the cache, byte-identical, without another evaluation.
func TestCacheHitPath(t *testing.T) {
	stub := &stubExec{}
	s := newTestServer(Config{Workers: 1}, stub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := postJSON(t, ts.URL, `{"experiment":"mds"}`)
	resp, second := postJSON(t, ts.URL, `{"experiment":"mds","archs":["zen2"],"seed":1,"runs":10,"bytes":4096}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var a, b Result
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		t.Fatal(err)
	}
	if !b.Cached {
		t.Error("explicitly-defaulted request missed the cache: canonicalization broken")
	}
	if a.Output != b.Output || a.ID != b.ID {
		t.Error("cached result differs from the original")
	}
	if sims := s.Stats().Simulations.Load(); sims != 1 {
		t.Errorf("simulations = %d, want 1", sims)
	}
}

// TestBackpressure429 checks overload sheds load with 429 + Retry-After
// instead of queueing.
func TestBackpressure429(t *testing.T) {
	stub := &stubExec{block: make(chan struct{})}
	s := newTestServer(Config{Workers: 1, QueueDepth: -1}, stub) // no queue: maxPending = 1
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL, `{"experiment":"kaslr"}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying request: status %d", resp.StatusCode)
		}
	}()
	waitFor(t, "first evaluation to start", func() bool { return stub.started.Load() == 1 })

	resp, data := postJSON(t, ts.URL, `{"experiment":"physmap"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Stats().RejectedBusy.Load(); got != 1 {
		t.Errorf("RejectedBusy = %d, want 1", got)
	}
	close(stub.block)
	<-done
}

// TestGracefulDrain checks the SIGTERM path: in-flight work completes,
// new work is refused with 503, readiness flips.
func TestGracefulDrain(t *testing.T) {
	stub := &stubExec{block: make(chan struct{})}
	s := newTestServer(Config{Workers: 2, QueueDepth: 4}, stub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL, `{"experiment":"kaslr"}`)
		inflight <- resp.StatusCode
	}()
	waitFor(t, "evaluation to start", func() bool { return stub.started.Load() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "drain to begin", func() bool { return s.sched.Draining() })

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz during drain = %d, want 200 (process is alive)", resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL, `{"experiment":"physmap"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request during drain = %d, want 503", resp.StatusCode)
	}

	close(stub.block) // let the admitted evaluation finish
	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request finished %d during drain, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestClientDisconnectCancelsEvaluation checks the waiter-refcount
// rule: when the last client interested in a flight goes away, the
// evaluation's context is cancelled.
func TestClientDisconnectCancelsEvaluation(t *testing.T) {
	stub := &stubExec{block: make(chan struct{})} // never closed
	s := newTestServer(Config{Workers: 1}, stub)

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan *apiError, 1)
	go func() {
		_, aerr := s.do(ctx, Request{Experiment: "kaslr"})
		errs <- aerr
	}()
	waitFor(t, "evaluation to start", func() bool { return stub.started.Load() == 1 })
	cancel()
	aerr := <-errs
	if aerr == nil || aerr.status != 499 {
		t.Fatalf("disconnected client got %+v, want status 499", aerr)
	}
	waitFor(t, "evaluation cancellation", func() bool { return stub.cancelled.Load() == 1 })
	if sims := s.Stats().Simulations.Load(); sims != 1 {
		t.Errorf("simulations = %d", sims)
	}
	if _, ok := s.cache.Get(mustNormalize(t, Request{Experiment: "kaslr"}).Key()); ok {
		t.Error("cancelled evaluation was cached")
	}
}

// TestEvaluationTimeout checks the per-experiment deadline surfaces as
// 504.
func TestEvaluationTimeout(t *testing.T) {
	stub := &stubExec{block: make(chan struct{})} // never closed
	s := newTestServer(Config{Workers: 1, BaseTimeout: 10 * time.Millisecond}, stub)
	_, aerr := s.do(context.Background(), Request{Experiment: "fig6"})
	if aerr == nil || aerr.status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out evaluation got %+v, want 504", aerr)
	}
}

// TestBatchRequests checks array submission: per-item results in
// submission order, identical items answered by one evaluation,
// per-item errors inline.
func TestBatchRequests(t *testing.T) {
	stub := &stubExec{}
	s := newTestServer(Config{Workers: 2, QueueDepth: 8}, stub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL,
		`[{"experiment":"kaslr"},{"experiment":"kaslr","seed":1},{"experiment":"physmap"},{"experiment":"bogus"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			Result
			Error  string `json:"error"`
			Status int    `json:"status"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("batch response: %v (%s)", err, data)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	if out.Results[0].ID == "" || out.Results[0].ID != out.Results[1].ID {
		t.Errorf("identical batch items got different ids: %q vs %q", out.Results[0].ID, out.Results[1].ID)
	}
	if out.Results[2].ID == out.Results[0].ID {
		t.Error("distinct batch items share an id")
	}
	if out.Results[3].Status != http.StatusBadRequest || out.Results[3].Error == "" {
		t.Errorf("invalid batch item = %+v, want inline 400", out.Results[3])
	}
	if sims := s.Stats().Simulations.Load(); sims != 2 {
		t.Errorf("batch ran %d simulations, want 2 (identical items collapse)", sims)
	}
}

// TestFlightRechecksTiers pins the race between a request's lookup miss
// and its flights.Do: an identical flight can store the result and leave
// the group in between. The flight the late request starts must then
// answer from whichever tier holds the result, without a simulation and
// without counting a second cache miss.
func TestFlightRechecksTiers(t *testing.T) {
	norm, err := Request{Experiment: "kaslr", Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := norm.Key()
	settled := &Result{ID: key, Experiment: norm.Experiment, Output: "settled\n"}

	st, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	data, err := json.Marshal(settled)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cache", Config{Workers: 1}},
		{"store", Config{Workers: 1, CacheBytes: -1, Store: st}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &stubExec{}
			s := newTestServer(tc.cfg, stub)
			s.cache.Put(key, settled)
			res, _, err := s.flights.Do(context.Background(), key, s.evaluate(norm, key, false))
			if err != nil {
				t.Fatal(err)
			}
			if sims := s.Stats().Simulations.Load(); sims != 0 || stub.started.Load() != 0 {
				t.Errorf("flight simulated %d times with the result already in the %s", sims, tc.name)
			}
			if res.Output != settled.Output || !res.Cached {
				t.Errorf("flight answered %+v, want the settled result marked cached", res)
			}
			if misses := s.CacheStats().Misses; misses != 0 {
				t.Errorf("recheck counted %d cache misses, want 0", misses)
			}
		})
	}
}

// TestResultsEndpoint checks content-addressed re-fetch.
func TestResultsEndpoint(t *testing.T) {
	stub := &stubExec{}
	s := newTestServer(Config{Workers: 1}, stub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, data := postJSON(t, ts.URL, `{"experiment":"fig6"}`)
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	refetched, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", resp.StatusCode)
	}
	var again Result
	if err := json.Unmarshal(refetched, &again); err != nil {
		t.Fatal(err)
	}
	if again.Output != res.Output || !again.Cached {
		t.Errorf("refetched result = %+v", again)
	}

	resp, err = http.Get(ts.URL + "/v1/results/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", resp.StatusCode)
	}
}

// TestStatsMatchMetrics pins that Stats and the serve_* counters on
// /metrics count the same events: a request refused while draining is
// a request in both, and a /v1/results hit is a cache hit in both.
func TestStatsMatchMetrics(t *testing.T) {
	telemetry.Enable(telemetry.Config{})
	defer func() {
		if err := telemetry.Disable(); err != nil {
			t.Error(err)
		}
	}()
	s := newTestServer(Config{Workers: 1}, &stubExec{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, data := postJSON(t, ts.URL, `{"experiment":"fig6"}`)
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", resp.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL, `{"experiment":"physmap"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	for _, c := range []struct {
		counter string
		stat    uint64
		want    uint64
	}{
		{"serve_requests", stats.Requests.Load(), 2},
		{"serve_cache_hits", stats.CacheHits.Load(), 1},
		{"serve_rejected_draining", stats.RejectedDraining.Load(), 1},
	} {
		if c.stat != c.want || snap.Counters[c.counter] != c.want {
			t.Errorf("%s: Stats %d, /metrics %d, want %d in both", c.counter, c.stat, snap.Counters[c.counter], c.want)
		}
	}
}

func TestArchesEndpoint(t *testing.T) {
	s := newTestServer(Config{Workers: 1}, &stubExec{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/arches")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Arches      []string            `json:"arches"`
		Aliases     map[string][]string `json:"aliases"`
		Experiments []string            `json:"experiments"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Arches) != 8 || len(out.Aliases["amd"]) != 4 || len(out.Experiments) != len(experiments) {
		t.Errorf("arches payload = %+v", out)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(Config{Workers: 1}, &stubExec{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		name, body string
		want       string // in the error message
	}{
		{"malformed", `{"experiment":`, ""},
		{"unknown field", `{"experiment":"kaslr","sed":3}`, ""},
		{"unknown experiment", `{"experiment":"tablet1"}`, ""},
		{"empty batch", `[]`, ""},
		{"trailing garbage", `{"experiment":"kaslr"} extra`, ""},
		{"bits no slice can hold", `{"experiment":"covert","archs":["zen1"],"bits":4611686018427387904,"runs":1}`, fmt.Sprintf("ceiling of %d", phantom.Table2Bits.Max)},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.want) {
			t.Errorf("%s: status %d, want 400 naming %q (%s)", c.name, resp.StatusCode, c.want, data)
		}
	}
}

// TestCacheCoalesceRace hammers the cache + singleflight path from 32
// goroutines over a deliberately tiny cache budget (constant eviction
// churn) and a small key space (constant flight contention). Its
// assertions are weak on purpose — the test's real teeth are the race
// detector's (`make race`, CI).
func TestCacheCoalesceRace(t *testing.T) {
	s := NewServer(Config{Workers: 4, QueueDepth: 64, CacheBytes: 700})
	s.exec = func(ctx context.Context, w io.Writer, req Request, jobs int) error {
		fmt.Fprintf(w, "out %s seed=%d", req.Experiment, req.Seed)
		return nil
	}
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				seed := int64(1 + (g+i)%5)
				res, aerr := s.do(context.Background(), Request{Experiment: "kaslr", Seed: seed})
				if aerr != nil {
					t.Errorf("do(seed %d): %v", seed, aerr)
					return
				}
				want := fmt.Sprintf("out kaslr seed=%d", seed)
				if res.Output != want {
					t.Errorf("seed %d: output %q, want %q (cache/flight mixed up results)", seed, res.Output, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stats := s.Stats()
	if got := stats.Requests.Load(); got != goroutines*50 {
		t.Errorf("requests = %d, want %d", got, goroutines*50)
	}
}

// TestDecodeStrict covers the decoder edge the HTTP tests reach only
// via full requests.
func TestDecodeStrict(t *testing.T) {
	var req Request
	if err := decodeStrict([]byte(`{"experiment":"kaslr","seed":3}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.Experiment != "kaslr" || req.Seed != 3 {
		t.Errorf("decoded %+v", req)
	}
	if err := decodeStrict([]byte(`{"experiment":"kaslr"}{"experiment":"mds"}`), &req); err == nil {
		t.Error("trailing JSON value accepted")
	}
}

// TestExecuteUnknownExperiment covers Execute's guard directly (the
// server normalizes first, so HTTP can't reach it).
func TestExecuteUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Execute(context.Background(), &buf, Request{Experiment: "nope"}, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Execute(ctx, &buf, Request{Experiment: "table1"}, 1); err == nil {
		t.Error("cancelled context accepted")
	}
}
