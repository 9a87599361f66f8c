package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phantom/internal/cluster"
	"phantom/internal/store"
	"phantom/internal/telemetry"
)

// Config tunes a Server. The zero value of every field means its
// documented default.
type Config struct {
	// Workers caps concurrently running evaluations; 0 = GOMAXPROCS.
	Workers int
	// QueueDepth caps evaluations waiting for a worker beyond the
	// running ones; past workers+queue the server sheds load with 429.
	// 0 = 2×Workers; negative = no queue (reject whenever all workers
	// are busy).
	QueueDepth int
	// Jobs sizes each evaluation's internal sweep pool. The server runs
	// up to Workers evaluations at once, so the default keeps the
	// product near GOMAXPROCS instead of oversubscribing: 0 =
	// max(1, GOMAXPROCS/Workers).
	Jobs int
	// CacheBytes is the result cache budget; 0 = 64 MiB. Negative
	// disables caching.
	CacheBytes int64
	// BaseTimeout is the per-evaluation deadline before the experiment
	// weight multiplier (Request.Timeout); 0 = 1 minute.
	BaseTimeout time.Duration
	// Store, when non-nil, is the durable result store: cache misses
	// read from it before simulating, and every locally computed result
	// is written through, so a restarted server answers warm questions
	// without re-simulation.
	Store *store.Store
	// Router, when non-nil and not Solo, shards the keyspace across
	// peers: non-owned requests proxy to their owner (one hop), and
	// separable multi-arch requests fan out per (arch) sub-request. A
	// dead peer degrades to local computation, never to a client error.
	Router *cluster.Router
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0) / c.Workers
		if c.Jobs < 1 {
			c.Jobs = 1
		}
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BaseTimeout <= 0 {
		c.BaseTimeout = time.Minute
	}
	return c
}

// Result is one served evaluation: the experiment's rendered text plus
// the identity and provenance a client needs to reason about it. ID is
// the content address (the canonical request hash), usable with GET
// /v1/results/{id} for as long as the entry survives the cache budget.
type Result struct {
	ID         string   `json:"id"`
	Experiment string   `json:"experiment"`
	Archs      []string `json:"archs,omitempty"`
	Seed       int64    `json:"seed"`
	// Output is byte-identical to the phantom CLI's stdout for the same
	// normalized request.
	Output string `json:"output"`
	// Cached reports the answer came from the result cache; Coalesced
	// that this request joined another's in-flight evaluation. Both
	// false means this request paid for the simulation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	// SimMS is the wall-clock evaluation cost when this result was
	// computed (not re-measured on cache hits).
	SimMS float64 `json:"sim_ms"`
	// Proxied reports the answer was computed by the owning peer and
	// forwarded here; Fanout, when nonzero, is the number of per-arch
	// sub-requests a separable request was decomposed into.
	Proxied bool `json:"proxied,omitempty"`
	Fanout  int  `json:"fanout,omitempty"`
}

// Stats counts server activity since start. All fields are atomic; read
// them with Load. Unlike telemetry (which the operator may not enable),
// Stats is always on — tests and benchmarks assert coalescing and cache
// behavior through it.
type Stats struct {
	Requests         atomic.Uint64
	CacheHits        atomic.Uint64
	CacheMisses      atomic.Uint64
	Coalesced        atomic.Uint64
	Simulations      atomic.Uint64
	RejectedBusy     atomic.Uint64
	RejectedDraining atomic.Uint64
	Errors           atomic.Uint64
	// Distributed-tier counters: zero on a storeless single node.
	StoreHits     atomic.Uint64 // cache misses answered from the durable store
	StoreFills    atomic.Uint64 // locally computed results written through
	Proxied       atomic.Uint64 // requests answered by their owning peer
	ProxyFailures atomic.Uint64 // forwards that failed (dead or erroring peer)
	DegradedLocal atomic.Uint64 // non-owned requests computed locally after a failed forward
	FanoutJobs    atomic.Uint64 // per-arch sub-requests spawned by separable fan-out
}

// Server is the experiment-serving engine behind cmd/phantom-server:
// cache lookup, coalescing, bounded scheduling, and rendering, exposed
// as an http.Handler. Construct with NewServer.
type Server struct {
	cfg     Config
	cache   *Cache
	flights *flightGroup
	sched   *scheduler
	stats   Stats
	store   *store.Store
	rtr     *cluster.Router

	// exec renders one normalized request; Execute in production, a
	// stub in tests that need slow or failing evaluations without
	// simulating.
	exec func(ctx context.Context, w io.Writer, req Request, jobs int) error
}

// NewServer returns a ready Server with cfg's zero fields defaulted.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheBytes),
		flights: newFlightGroup(),
		sched:   newScheduler(cfg.Workers, cfg.QueueDepth),
		store:   cfg.Store,
		rtr:     cfg.Router,
		exec:    Execute,
	}
}

// clustered reports whether the routing path is live: a router with
// more than one peer. Solo and router-less servers skip it entirely.
func (s *Server) clustered() bool { return s.rtr != nil && !s.rtr.Solo() }

// Stats exposes the live counters (pointer: fields are atomics).
func (s *Server) Stats() *Stats { return &s.stats }

// CacheStats exposes the result-cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// QueueDepth reports admitted (running + queued) evaluations.
func (s *Server) QueueDepth() int64 { return s.sched.Pending() }

// Drain begins graceful shutdown: /readyz flips unready, new
// evaluations are refused with 503, and Drain blocks until every
// admitted evaluation finishes or ctx ends. Idempotent; safe to call
// before http.Server.Shutdown so in-flight responses complete.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.StartDrain()
	return s.sched.AwaitIdle(ctx)
}

// apiError is a request failure with its HTTP rendering.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// do answers one request: normalize, cache, coalesce, schedule,
// evaluate. The returned Result is a private copy with the
// response-specific Cached/Coalesced flags set.
func (s *Server) do(ctx context.Context, req Request) (*Result, *apiError) {
	return s.doRouted(ctx, req, false)
}

// doRouted is do with the cluster view: forwarded requests (the loop
// guard header was present) always answer locally, so a request takes
// at most one proxy hop. The lookup order is memory cache, durable
// store, then — when clustered and not forwarded — fan-out or proxy,
// and finally local evaluation.
func (s *Server) doRouted(ctx context.Context, req Request, forwarded bool) (*Result, *apiError) {
	s.stats.Requests.Add(1)
	counter("serve_requests").Inc(0)
	norm, err := req.Normalize()
	if err != nil {
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	key := norm.Key()
	if res, ok := s.lookup(key); ok {
		return res, nil
	}
	if s.clustered() && !forwarded {
		// Separable: the catalog entry renders each arch on its own.
		if byName[norm.Experiment].perArch != nil && len(norm.Archs) > 1 {
			res, shared, err := s.flights.Do(ctx, key, s.assemble(norm, key))
			if shared {
				s.stats.Coalesced.Add(1)
				counter("serve_coalesced").Inc(0)
			}
			if err != nil {
				return nil, s.mapError(err)
			}
			out := *res
			out.Coalesced = shared
			return &out, nil
		}
		if owner, local := s.rtr.Owner(key); !local {
			if res, ok := s.proxy(ctx, norm, owner); ok {
				return res, nil
			}
			s.stats.DegradedLocal.Add(1)
			counter("serve_degraded_local").Inc(0)
		}
	}

	res, shared, err := s.flights.Do(ctx, key, s.evaluate(norm, key, forwarded))
	if shared {
		s.stats.Coalesced.Add(1)
		counter("serve_coalesced").Inc(0)
	}
	if err != nil {
		return nil, s.mapError(err)
	}
	out := *res
	out.Coalesced = shared
	return &out, nil
}

// lookup answers key from the in-memory cache, then the durable store.
// A store hit is promoted into the cache so repeats stay off disk. The
// returned copy has Cached set: from the client's point of view both
// tiers are "previously computed".
func (s *Server) lookup(key string) (*Result, bool) {
	if res, ok := s.cache.Get(key); ok {
		s.stats.CacheHits.Add(1)
		counter("serve_cache_hits").Inc(0)
		out := *res
		out.Cached = true
		return &out, true
	}
	s.stats.CacheMisses.Add(1)
	counter("serve_cache_misses").Inc(0)
	if s.store == nil {
		return nil, false
	}
	data, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	res := new(Result)
	if err := json.Unmarshal(data, res); err != nil {
		// A record that passed its CRC but does not decode is from an
		// incompatible schema; treat it as a miss and recompute.
		counter("serve_store_errors").Inc(0)
		return nil, false
	}
	s.stats.StoreHits.Add(1)
	counter("serve_store_hits").Inc(0)
	s.cache.Put(key, res)
	out := *res
	out.Cached = true
	return &out, true
}

// proxy forwards a non-owned request to its owner and decodes the
// answer. false means the caller should compute locally instead —
// ShouldTry declined (peer known down), the forward failed, or the
// reply did not decode. Proxied results are deliberately NOT cached or
// stored here: each node's cache and store hold only the shard it
// owns, so memory is partitioned rather than mirrored.
func (s *Server) proxy(ctx context.Context, norm Request, owner cluster.Peer) (*Result, bool) {
	if !s.rtr.ShouldTry(owner) {
		return nil, false
	}
	body, err := json.Marshal(norm)
	if err != nil {
		return nil, false
	}
	// The owner runs under its own per-experiment deadline; double it
	// here so a healthy-but-queued peer is not misread as dead, while a
	// hung one cannot stall this request forever.
	fctx, cancel := context.WithTimeout(ctx, 2*norm.Timeout(s.cfg.BaseTimeout))
	defer cancel()
	data, err := s.rtr.Forward(fctx, owner, body)
	if err != nil {
		s.stats.ProxyFailures.Add(1)
		counter("serve_peer_failures").Inc(0)
		return nil, false
	}
	res := new(Result)
	if err := json.Unmarshal(data, res); err != nil {
		s.stats.ProxyFailures.Add(1)
		counter("serve_peer_failures").Inc(0)
		return nil, false
	}
	s.stats.Proxied.Add(1)
	counter("serve_proxied").Inc(0)
	res.Proxied = true
	return res, true
}

// assemble returns the flight function for a separable multi-arch
// request: decompose into single-arch sub-requests, resolve each
// against its owning peer concurrently, and concatenate the outputs in
// canonical arch order — byte-identical to evaluating the whole
// request on one node, because separable experiments render each arch
// independently. The assembled parent is not cached: its per-arch
// pieces are, on their owning nodes, which is where repeats hit.
func (s *Server) assemble(norm Request, key string) func(context.Context) (*Result, error) {
	return func(fctx context.Context) (*Result, error) {
		n := len(norm.Archs)
		s.stats.FanoutJobs.Add(uint64(n))
		counter("serve_fanout_jobs").Add(0, uint64(n))
		subs := make([]*Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, arch := range norm.Archs {
			wg.Add(1)
			go func(i int, arch string) {
				defer wg.Done()
				sub := norm
				sub.Archs = []string{arch}
				subs[i], errs[i] = s.resolve(fctx, sub)
			}(i, arch)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		var out strings.Builder
		var simMS float64
		for _, sub := range subs {
			out.WriteString(sub.Output)
			simMS += sub.SimMS
		}
		return &Result{
			ID:         key,
			Experiment: norm.Experiment,
			Archs:      norm.Archs,
			Seed:       norm.Seed,
			Output:     out.String(),
			SimMS:      simMS,
			Fanout:     n,
		}, nil
	}
}

// resolve answers one single-arch fan-out sub-request: cache, store,
// owner proxy, then local compute. Local compute uses internal
// admission — the parent was admitted at the edge, so its pieces block
// for a worker slot instead of being shed.
func (s *Server) resolve(ctx context.Context, sub Request) (*Result, error) {
	key := sub.Key()
	if res, ok := s.lookup(key); ok {
		return res, nil
	}
	if owner, local := s.rtr.Owner(key); !local {
		if res, ok := s.proxy(ctx, sub, owner); ok {
			return res, nil
		}
		s.stats.DegradedLocal.Add(1)
		counter("serve_degraded_local").Inc(0)
	}
	res, _, err := s.flights.Do(ctx, key, s.evaluate(sub, key, true))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// storePut writes a locally computed result through to the durable
// store and refreshes the store gauges.
func (s *Server) storePut(key string, res *Result) {
	if s.store == nil {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	if err := s.store.Put(key, data); err != nil {
		counter("serve_store_errors").Inc(0)
		return
	}
	s.stats.StoreFills.Add(1)
	counter("serve_store_fills").Inc(0)
	st := s.store.Stats()
	gauge("store_records").Set(int64(st.Records))
	gauge("store_live_bytes").Set(st.LiveBytes)
	gauge("store_total_bytes").Set(st.TotalBytes)
}

// evaluate returns the flight function for one normalized request: take
// a scheduler slot, render under the per-experiment deadline, cache,
// and write through to the durable store. internal marks cluster-
// internal work (fan-out sub-jobs, forwarded requests), which blocks
// for a slot instead of being shed — admission already happened at the
// edge of the cluster.
func (s *Server) evaluate(req Request, key string, internal bool) func(context.Context) (*Result, error) {
	return func(fctx context.Context) (*Result, error) {
		acquire := s.sched.acquire
		if internal {
			acquire = s.sched.acquireInternal
		}
		release, err := acquire(fctx)
		if err != nil {
			return nil, err
		}
		gauge("serve_queue_depth").Set(s.sched.Pending())
		defer func() {
			release()
			gauge("serve_queue_depth").Set(s.sched.Pending())
		}()

		ctx, cancel := context.WithTimeout(fctx, req.Timeout(s.cfg.BaseTimeout))
		defer cancel()
		s.stats.Simulations.Add(1)
		counter("serve_simulations").Inc(0)
		start := time.Now()
		var buf bytes.Buffer
		if err := s.exec(ctx, &buf, req, s.cfg.Jobs); err != nil {
			// Deadline errors surface as the flight ctx's state so
			// mapError can distinguish timeout from client cancel.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				err = ctx.Err()
			}
			return nil, err
		}
		histogram("serve_sim_ns").Observe(0, uint64(time.Since(start)))
		res := &Result{
			ID:         key,
			Experiment: req.Experiment,
			Archs:      req.Archs,
			Seed:       req.Seed,
			Output:     buf.String(),
			SimMS:      float64(time.Since(start)) / float64(time.Millisecond),
		}
		s.cache.Put(key, res)
		s.storePut(key, res)
		return res, nil
	}
}

// mapError turns an evaluation failure into its HTTP form.
func (s *Server) mapError(err error) *apiError {
	var busy *BusyError
	switch {
	case errors.As(err, &busy):
		s.stats.RejectedBusy.Add(1)
		counter("serve_rejected_busy").Inc(0)
		return &apiError{status: http.StatusTooManyRequests, msg: err.Error(), retryAfter: busy.RetryAfter}
	case errors.Is(err, ErrDraining):
		s.stats.RejectedDraining.Add(1)
		counter("serve_rejected_draining").Inc(0)
		return &apiError{status: http.StatusServiceUnavailable, msg: err.Error(), retryAfter: time.Second}
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.Errors.Add(1)
		counter("serve_errors").Inc(0)
		return &apiError{status: http.StatusGatewayTimeout, msg: "evaluation deadline exceeded"}
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the log, not the client.
		return &apiError{status: 499, msg: "request canceled"}
	default:
		s.stats.Errors.Add(1)
		counter("serve_errors").Inc(0)
		return &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

// Handler returns the HTTP API:
//
//	POST /v1/experiments     evaluate one request, or a JSON array of them
//	GET  /v1/results/{id}    re-fetch a cached result by content address
//	GET  /v1/arches          servable experiments, arches, and aliases
//	GET  /healthz            process liveness (always 200 while serving)
//	GET  /readyz             503 once draining, 200 otherwise
//	GET  /metrics            telemetry snapshot (JSON; ?format=text)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/arches", s.handleArches)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{"status": "ready"}
		if s.rtr != nil {
			body["node"] = s.rtr.Self().ID
			body["peers"] = s.rtr.Health()
		}
		if s.sched.Draining() {
			body["status"] = "draining"
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.Handle("GET /metrics", telemetry.MetricsHandler())
	return mux
}

// maxBodyBytes bounds request bodies; experiment requests are tiny.
const maxBodyBytes = 1 << 20

// batchItem is one element of a batch response: the Result on success,
// or the error with its would-be HTTP status (and retry hint for 429).
type batchItem struct {
	*Result
	Error        string `json:"error,omitempty"`
	Status       int    `json:"status,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		histogram("serve_latency_ns").Observe(0, uint64(time.Since(start)))
	}()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "reading body: " + err.Error()})
		return
	}
	if s.sched.Draining() {
		// Reject before decoding: a draining server should not accept
		// new work it would only 503 one layer down.
		s.stats.Requests.Add(1)
		s.stats.RejectedDraining.Add(1)
		counter("serve_rejected_draining").Inc(0)
		writeError(w, &apiError{status: http.StatusServiceUnavailable, msg: ErrDraining.Error(), retryAfter: time.Second})
		return
	}
	// The loop guard: a request forwarded by a peer is answered locally
	// no matter what this node's ring says, so proxying is single-hop.
	forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		s.handleBatch(w, r, trimmed, forwarded)
		return
	}
	var req Request
	if err := decodeStrict(trimmed, &req); err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	res, aerr := s.doRouted(r.Context(), req, forwarded)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleBatch evaluates a JSON array of requests concurrently —
// identical items coalesce onto one simulation — and responds 200 with
// per-item results or errors in submission order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, body []byte, forwarded bool) {
	var reqs []Request
	if err := decodeStrict(body, &reqs); err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	if len(reqs) == 0 {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "empty batch"})
		return
	}
	items := make([]batchItem, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			res, aerr := s.doRouted(r.Context(), req, forwarded)
			if aerr != nil {
				items[i] = batchItem{Error: aerr.msg, Status: aerr.status, RetryAfterMS: aerr.retryAfter.Milliseconds()}
				return
			}
			items[i] = batchItem{Result: res}
		}(i, req)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, map[string]any{"results": items})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.cache.Get(id)
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound, msg: "unknown or evicted result id"})
		return
	}
	counter("serve_cache_hits").Inc(0)
	out := *res
	out.Cached = true
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleArches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"arches":      archAll,
		"aliases":     map[string][]string{"all": archAll, "amd": archAMD},
		"experiments": Experiments(),
	})
}

// decodeStrict unmarshals JSON rejecting unknown fields, so a typoed
// option fails loudly instead of silently meaning "default" (and
// silently splitting the cache key space).
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("decoding request: trailing data after JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.status, map[string]any{"error": e.msg, "status": e.status})
}

// counter / gauge / histogram look up a metric on the process hub.
// Nil-safe by construction: with telemetry disabled they return the
// no-op handles, so the serving path needs no enabled/disabled branch.
func counter(name string) *telemetry.Counter {
	return telemetry.Active().Registry().Counter(name)
}

func gauge(name string) *telemetry.Gauge {
	return telemetry.Active().Registry().Gauge(name)
}

func histogram(name string) *telemetry.Histogram {
	return telemetry.Active().Registry().Histogram(name)
}
