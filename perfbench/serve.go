package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"phantom"
	"phantom/internal/cluster"
	"phantom/internal/service"
	"phantom/internal/store"
	"phantom/internal/sweep"
)

// serve: two service.Server nodes in this process on loopback, forming
// a two-peer cluster ring, each with its own durable store. A closed
// loop of serveClients clients, one keep-alive connection each, sends a
// seeded sequence of hot repeats (answered as local hits, proxied hits or
// store hits, since each node's memory cache holds only part of its
// share of the hot set) and fresh-seed single-arch Table 1 requests
// (boot-free cold simulations the owner writes to its store). It
// measures the serving layers no other workload reaches, so the mix is
// set for the serving layers to carry most of a round's time: see
// serveRoundReqs.

const (
	serveNodes = 2
	// serveClients is the closed loop's size. One client keeps hot
	// requests from queueing behind another client's cold simulation on
	// a two-core box, which made hot latencies vary by a fifth between
	// runs; the client's node proxies the other node's keys, so both
	// nodes still serve every kind of hit.
	serveClients = 1
	// serveHot is the hot set: eight seeds of each of the eight
	// modelled parts, chosen so that each node owns four of each.
	serveHot = 64
	// serveCacheEntries is each node's memory-cache budget in hot
	// results: half of its share of the hot set, so that under uniform
	// access about half of an owner's hot lookups are memory hits and
	// half store hits.
	serveCacheEntries = 16
	// serveRoundReqs is the requests each client sends per round (the
	// unit), exactly one of them cold. Two targets set it. Cold requests
	// must be over 1% of requests, so that latency_p99_ms is a cold
	// request's latency: at fewer, the p99 falls among hot requests
	// that happened to wait behind a simulation or a collection, and
	// varied by a third between runs. And cold simulation must stay
	// under half of the request time, so that the service, store and
	// cluster layers carry the larger part: a cold request takes about
	// as long as 50 hot ones. One in 64 (1.6%) meets both, with cold
	// requests at about 45% of request time; every run's notes give the
	// share measured. A probe runs shorter rounds.
	serveRoundReqs      = 64
	serveProbeRoundReqs = 16
	// serveReplays is how many hot keys a traced round replays against
	// the stores directly, and servePairs how many it times as memory
	// hits.
	serveReplays = 8
	servePairs   = 16
)

var serveArchs = archNames(phantom.AllMicroarchs())

func archNames(as []phantom.Microarch) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = string(a)
	}
	return out
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hotSet is the workload's repeated requests: single-arch Table 1 at
// seeds derived from the workload seed, below 2^40, picked so that each
// node owns the same number of each part's. Ownership depends only on
// the peer IDs, so the split holds whatever addresses the nodes get.
func hotSet(seed int64) ([]service.Request, error) {
	peers := servePeers()
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	perNode := serveHot / len(serveArchs) / serveNodes
	var out []service.Request
	for ai, arch := range serveArchs {
		owned := make(map[string]int)
		for k := 0; len(out) < (ai+1)*perNode*serveNodes; k++ {
			req := service.Request{
				Experiment: "table1",
				Archs:      []string{arch},
				Seed:       1 + int64(mix64(uint64(seed)^mix64(uint64(ai)<<32|uint64(k)))%(1<<40)),
			}
			norm, err := req.Normalize()
			if err != nil {
				return nil, err
			}
			if id := ring.Owner(norm.Key()).ID; owned[id] < perNode {
				owned[id]++
				out = append(out, req)
			}
		}
	}
	return out, nil
}

// servePeers is the cluster's membership; the addresses are filled in
// once the nodes listen.
func servePeers() []cluster.Peer {
	peers := make([]cluster.Peer, serveNodes)
	for i := range peers {
		id := fmt.Sprintf("n%d", i+1)
		peers[i] = cluster.Peer{ID: id, Addr: id}
	}
	return peers
}

// serveRequest returns request i of client c's sequence, in rounds of
// perRnd requests, and whether it is cold. Each round holds exactly one
// cold request, at a seeded position. Cold requests carry seeds at or
// above 2^52, so they never repeat a hot request.
func serveRequest(seed int64, client, i, perRnd int, hot []service.Request) (service.Request, bool) {
	round := mix64(uint64(seed) ^ mix64(uint64(client)<<32|uint64(uint32(i/perRnd))|1<<63))
	h := mix64(uint64(seed) ^ mix64(uint64(client)<<32|uint64(uint32(i))))
	if uint64(i%perRnd) == round%uint64(perRnd) {
		return service.Request{
			Experiment: "table1",
			Archs:      []string{serveArchs[(h>>3)%uint64(len(serveArchs))]},
			Seed:       int64(h>>12) | 1<<52,
		}, true
	}
	return hot[(h>>3)%uint64(len(hot))], false
}

type serveNode struct {
	srv  *service.Server
	rtr  *cluster.Router
	st   *store.Store
	hs   *http.Server
	done chan error
	// proxy is the router's transport to its peer.
	proxy *http.Transport
}

type serveClient struct {
	id   int
	url  string
	tr   *http.Transport
	hc   *http.Client
	next int // index of the client's next request in its sequence
}

type serveBench struct {
	seed    int64
	dir     string
	perRnd  int
	hot     []service.Request
	refs    map[string]string // normalized key → sha256 of service.Execute's output
	nodes   []*serveNode
	clients []*serveClient
	direct  []*serveClient // one per node, for the traced memory-hit pairs
	replay  *store.Store   // scratch store for Put replays, opened on first use
	puts    int            // replayed Puts so far, which keeps their keys fresh
	pairs   int            // memory-hit pairs timed so far, which rotates their keys
}

func setupServe(e env) (bench, error) {
	dir, err := os.MkdirTemp(e.dir, "serve-")
	if err != nil {
		return nil, err
	}
	hot, err := hotSet(e.seed)
	if err != nil {
		return nil, err
	}
	b := &serveBench{seed: e.seed, dir: dir, perRnd: serveRoundReqs, hot: hot, refs: e.refs}
	if e.probe {
		b.perRnd = serveProbeRoundReqs
	}
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// start boots the nodes and clients and pre-warms every hot result into
// its owner's store.
func (b *serveBench) start() error {
	var one bytes.Buffer
	norm, err := b.hot[0].Normalize()
	if err != nil {
		return err
	}
	if err := service.Execute(context.Background(), &one, norm, 1); err != nil {
		return err
	}
	// The cache charges output + key + 256 bytes of bookkeeping per
	// entry.
	cacheBytes := int64(serveCacheEntries * (one.Len() + 64 + 256))

	lns := make([]net.Listener, serveNodes)
	peers := servePeers()
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		peers[i].Addr = ln.Addr().String()
	}
	for i := range lns {
		n := &serveNode{proxy: &http.Transport{}, done: make(chan error, 1)}
		rtr, err := cluster.NewRouter(cluster.Config{Self: peers[i].ID, Peers: peers, Client: &http.Client{Transport: n.proxy}})
		if err == nil {
			n.st, err = store.Open(filepath.Join(b.dir, peers[i].ID), store.Options{})
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		n.rtr = rtr
		n.srv = service.NewServer(service.Config{CacheBytes: cacheBytes, Store: n.st, Router: rtr})
		n.hs = &http.Server{Handler: n.srv.Handler()}
		go func(ln net.Listener) { n.done <- n.hs.Serve(ln) }(lns[i])
		b.nodes = append(b.nodes, n)
	}
	for c := 0; c < serveClients; c++ {
		b.clients = append(b.clients, newServeClient(c, peers[c%serveNodes].Addr))
	}
	for i, p := range peers {
		b.direct = append(b.direct, newServeClient(i, p.Addr))
	}
	// Each client pre-warms its share of the hot set.
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		wg.Add(1)
		go func(ci int, c *serveClient) {
			defer wg.Done()
			for j := ci; j < len(b.hot) && errs[ci] == nil; j += len(b.clients) {
				s, err := c.do(b.hot[j])
				if err == nil && s.status != http.StatusOK {
					err = fmt.Errorf("pre-warm: status %d", s.status)
				}
				errs[ci] = err
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func newServeClient(id int, addr string) *serveClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &serveClient{id: id, url: "http://" + addr + "/v1/experiments", tr: tr, hc: &http.Client{Transport: tr}}
}

// served is one request's outcome as the client saw it.
type served struct {
	req                        service.Request
	cold                       bool
	start, end                 time.Time
	status                     int
	cached, coalesced, proxied bool
	sum                        string // sha256 of the served output
}

func (c *serveClient) do(req service.Request) (served, error) {
	s := served{req: req}
	body, err := json.Marshal(req)
	if err != nil {
		return s, err
	}
	s.start = time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	if err != nil {
		return s, err
	}
	s.status = resp.StatusCode
	if s.status != http.StatusOK {
		return s, nil
	}
	var res struct {
		Output                     string
		Cached, Coalesced, Proxied bool
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return s, err
	}
	s.cached, s.coalesced, s.proxied = res.Cached, res.Coalesced, res.Proxied
	s.sum = digest(res.Output)
	return s, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// reference returns the digest of service.Execute's output for req:
// the one recorded for a hot request, else a fresh evaluation, timed as
// a service.execute span when traced. It only reads b.refs, so check
// may call it from several goroutines.
func (b *serveBench) reference(req service.Request, tr *tracer, parent int) (string, error) {
	norm, err := req.Normalize()
	if err != nil {
		return "", err
	}
	key := norm.Key()
	if d, ok := b.refs[key]; ok {
		return d, nil
	}
	var out bytes.Buffer
	sp := -1
	if tr != nil {
		sp = tr.begin("service.execute", parent)
	}
	err = service.Execute(context.Background(), &out, norm, 1)
	if sp >= 0 {
		tr.end(sp)
	}
	if err != nil {
		return "", err
	}
	return digest(out.String()), nil
}

// round sends perRnd requests from every client, closed loop, timed by
// m; traced runs add one span per request, named by how it was
// answered.
func (b *serveBench) round(m *meter, tr *tracer, root int) ([]served, error) {
	for _, req := range b.hot {
		norm, err := req.Normalize()
		if err != nil {
			return nil, err
		}
		if _, ok := b.refs[norm.Key()]; !ok {
			d, err := b.reference(req, nil, -1)
			if err != nil {
				return nil, err
			}
			b.refs[norm.Key()] = d
		}
	}
	out := make([][]served, len(b.clients))
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	m.start()
	for ci, c := range b.clients {
		wg.Add(1)
		go func(ci int, c *serveClient) {
			defer wg.Done()
			for k := 0; k < b.perRnd; k++ {
				req, cold := serveRequest(b.seed, c.id, c.next, b.perRnd, b.hot)
				c.next++
				s, err := c.do(req)
				if err != nil {
					errs[ci] = err
					return
				}
				s.cold = cold
				out[ci] = append(out[ci], s)
				if tr != nil {
					tr.add(s.class(), root, s.start, s.end)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	m.stop()
	var all []served
	for ci := range out {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		all = append(all, out[ci]...)
	}
	return all, nil
}

func (s served) class() string {
	switch {
	case s.cold:
		return "serve.cold"
	case s.cached && s.proxied:
		return "serve.hit_proxied"
	case s.cached:
		return "serve.hit_local"
	}
	return "serve.miss"
}

// check byte-compares every served output with service.Execute of the
// same normalized request (by digest) and tallies the round.
func (b *serveBench) check(all []served, tr *tracer, root int) (unitResult, error) {
	r := unitResult{items: len(all), attempted: len(all)}
	var cold []int
	for i, s := range all {
		r.latMS = append(r.latMS, float64(s.end.Sub(s.start))/float64(time.Millisecond))
		if s.status == http.StatusOK && !s.cached && !s.coalesced {
			r.coldMS = append(r.coldMS, r.latMS[i])
		}
		if s.cold {
			cold = append(cold, i)
		}
	}
	want, err := sweep.Run(context.Background(), len(cold), sweep.Options{}, func(_ context.Context, i int) (string, error) {
		return b.reference(all[cold[i]].req, tr, root)
	})
	if err != nil {
		return r, err
	}
	for _, s := range all {
		ok := s.status == http.StatusOK
		if ok && !s.cold {
			norm, err := s.req.Normalize()
			if err != nil {
				return r, err
			}
			ok = s.sum == b.refs[norm.Key()]
		}
		if !ok {
			r.failed++
		}
	}
	for j, i := range cold {
		if all[i].status == http.StatusOK && all[i].sum != want[j] {
			r.failed++
		}
	}
	return r, nil
}

// unit runs the next round of the request sequence; serve has a
// single input.
func (b *serveBench) unit(m *meter, _ int) (unitResult, error) {
	all, err := b.round(m, nil, -1)
	if err != nil {
		return unitResult{}, err
	}
	return b.check(all, nil, -1)
}

// traced is a round with per-request spans, the servers' and stores'
// counter deltas, the queue depth sampled while it runs, and direct
// Store.Get/Put replays of hot results.
func (b *serveBench) traced(m *meter, tr *tracer, root int) (unitResult, layerVals, simCounts, error) {
	before := b.counters()
	c0 := hubCounts()
	var depth atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var d int64
				for _, n := range b.nodes {
					d += n.srv.QueueDepth()
				}
				if d > depth.Load() {
					depth.Store(d)
				}
			}
		}
	}()
	all, err := b.round(m, tr, root)
	close(stop)
	wg.Wait()
	if err != nil {
		return unitResult{}, nil, simCounts{}, err
	}
	sim := hubCounts().sub(c0)
	d := b.counters().sub(before)
	r, err := b.check(all, tr, root)
	if err != nil {
		return r, nil, sim, err
	}
	proxied := 0
	for _, s := range all {
		if s.proxied {
			proxied++
		}
	}
	live, err := b.replays(all, tr, root)
	if err != nil {
		return r, nil, sim, err
	}
	pr, err := b.memoryHits(tr, root)
	if err != nil {
		return r, nil, sim, err
	}
	r.add(pr)
	vals := layerVals{
		"service.cache_hit_pct":  pct(int(d.cacheHits), int(d.cacheHits+d.cacheMisses)),
		"service.rejected":       float64(d.rejected),
		"service.queue_depth":    float64(depth.Load()),
		"store.hit_pct":          pct(int(d.storeHits), int(d.storeHits+d.storeMisses)),
		"store.fills":            float64(d.fills),
		"store.live_mb":          float64(live) / 1e6,
		"cluster.proxied_pct":    pct(proxied, len(all)),
		"cluster.proxy_failures": float64(d.proxyFailures),
	}
	return r, vals, sim, nil
}

// serveCounters sums the nodes' server and store counters.
type serveCounters struct {
	cacheHits, cacheMisses, rejected, proxyFailures uint64
	storeHits, storeMisses, fills                   uint64
}

func (b *serveBench) counters() serveCounters {
	var c serveCounters
	for _, n := range b.nodes {
		s := n.srv.Stats()
		c.cacheHits += s.CacheHits.Load()
		c.cacheMisses += s.CacheMisses.Load()
		c.rejected += s.RejectedBusy.Load() + s.RejectedDraining.Load()
		c.proxyFailures += s.ProxyFailures.Load()
		st := n.st.Stats()
		c.storeHits += st.Hits
		c.storeMisses += st.Misses
		c.fills += st.Fills
	}
	return c
}

func (c serveCounters) sub(o serveCounters) serveCounters {
	return serveCounters{
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		rejected: c.rejected - o.rejected, proxyFailures: c.proxyFailures - o.proxyFailures,
		storeHits: c.storeHits - o.storeHits, storeMisses: c.storeMisses - o.storeMisses,
		fills: c.fills - o.fills,
	}
}

// replays reads up to serveReplays of the round's hot results straight
// from the owning node's store, writes each into a scratch store under
// a fresh key, and returns the nodes' live store bytes.
func (b *serveBench) replays(all []served, tr *tracer, root int) (int64, error) {
	if b.replay == nil {
		st, err := store.Open(filepath.Join(b.dir, "replay"), store.Options{})
		if err != nil {
			return 0, err
		}
		b.replay = st
	}
	done := 0
	for _, s := range all {
		if s.cold || done == serveReplays {
			continue
		}
		norm, err := s.req.Normalize()
		if err != nil {
			return 0, err
		}
		key := norm.Key()
		for _, n := range b.nodes {
			if !n.st.Has(key) {
				continue
			}
			sp := tr.begin("store.get", root)
			val, ok := n.st.Get(key)
			tr.end(sp)
			if !ok {
				return 0, fmt.Errorf("store lost %s", key)
			}
			sp = tr.begin("store.put", root)
			b.puts++
			err := b.replay.Put(fmt.Sprintf("%s/%d", key, b.puts), val)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			done++
			break
		}
	}
	var live int64
	for _, n := range b.nodes {
		live += n.st.Stats().LiveBytes
	}
	return live, nil
}

// memoryHits times hot requests that are sure to be memory-cache hits,
// with no other traffic: each of servePairs hot keys is sent to its
// owner twice back to back, so the second reply comes from the owner's
// memory (the first promoted it there if it was a store hit), then once
// to the other node, which proxies it to the owner's memory. The owner's
// Stats must count each timed request as a cache hit.
func (b *serveBench) memoryHits(tr *tracer, root int) (unitResult, error) {
	var r unitResult
	send := func(node int, req service.Request, name string) error {
		s, err := b.direct[node].do(req)
		if err != nil {
			return err
		}
		r.attempted++
		norm, err := req.Normalize()
		if err != nil {
			return err
		}
		if s.status != http.StatusOK || s.sum != b.refs[norm.Key()] {
			r.failed++
		}
		if name != "" {
			tr.add(name, root, s.start, s.end)
		}
		return nil
	}
	for j := 0; j < servePairs; j++ {
		req := b.hot[(b.pairs+j)%len(b.hot)]
		norm, err := req.Normalize()
		if err != nil {
			return r, err
		}
		owner, other := 0, 1
		if _, local := b.nodes[0].rtr.Owner(norm.Key()); !local {
			owner, other = 1, 0
		}
		if err := send(owner, req, ""); err != nil {
			return r, err
		}
		hits := b.nodes[owner].srv.Stats().CacheHits.Load()
		if err := send(owner, req, "serve.memory_hit_local"); err != nil {
			return r, err
		}
		if err := send(other, req, "serve.memory_hit_proxied"); err != nil {
			return r, err
		}
		if got := b.nodes[owner].srv.Stats().CacheHits.Load() - hits; got != 2 {
			return r, fmt.Errorf("memory-hit pair %s: the owner counted %d cache hits for the two timed requests", norm.Key(), got)
		}
	}
	b.pairs += servePairs
	return r, nil
}

func (b *serveBench) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range append(b.clients, b.direct...) {
		c.tr.CloseIdleConnections()
	}
	for _, n := range b.nodes {
		keep(n.hs.Close())
		if err := <-n.done; !errors.Is(err, http.ErrServerClosed) {
			keep(err)
		}
		n.proxy.CloseIdleConnections()
		keep(n.st.Close())
	}
	if b.replay != nil {
		keep(b.replay.Close())
	}
	b.clients, b.direct, b.nodes, b.replay = nil, nil, nil, nil
	keep(os.RemoveAll(b.dir))
	return first
}
