package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// ForwardedHeader is the single-hop loop guard: a forwarded request
// carries the sender's node ID in this header, and a node that
// receives it always answers locally — even if its ring disagrees
// about ownership (e.g. mid-rollout with differing peer flags), a
// request can only ever take one extra hop, never cycle.
const ForwardedHeader = "X-Phantom-Forwarded"

// experimentsPath is the endpoint Forward posts to on the owner.
const experimentsPath = "/v1/experiments"

// Config tunes a Router. The zero value of every optional field means
// its documented default.
type Config struct {
	// Self is this node's peer ID; it must appear in Peers.
	Self string
	// Peers is the full static node set, this node included.
	Peers []Peer
	// Client issues the proxy requests; nil = a plain http.Client.
	// Deadlines come from the request context, not the client.
	Client *http.Client
	// FailureThreshold is how many consecutive Forward failures mark a
	// peer down; 0 = 3.
	FailureThreshold int
	// RetryEvery is the half-open probe cadence for a down peer: every
	// RetryEvery-th request that would have been forwarded to it is
	// allowed through as a probe (success resets the peer to healthy);
	// the rest compute locally without paying a connection timeout.
	// 0 = 8. The cadence is request-count based, not clock based, so
	// recovery behavior is deterministic and testable.
	RetryEvery int
}

// peerState is the health bookkeeping for one peer.
type peerState struct {
	failures int // consecutive Forward failures
	skips    int // forwards skipped while down, drives half-open probes
}

// PeerHealth is one row of Router.Health, in peer-ID order.
type PeerHealth struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	Self     bool   `json:"self,omitempty"`
	Healthy  bool   `json:"healthy"`
	Failures int    `json:"failures,omitempty"`
}

// Router owns the cluster view of one node: the ring, this node's
// identity, and passive peer-health tracking. Construct with
// NewRouter. All methods are safe for concurrent use.
type Router struct {
	ring       *Ring
	self       Peer
	client     *http.Client
	threshold  int
	retryEvery int

	mu     sync.Mutex
	states []peerState // parallel to ring.peers
	byID   map[string]int
}

// NewRouter validates cfg and builds the ring.
func NewRouter(cfg Config) (*Router, error) {
	ring, err := NewRing(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 8
	}
	r := &Router{
		ring:       ring,
		client:     cfg.Client,
		threshold:  cfg.FailureThreshold,
		retryEvery: cfg.RetryEvery,
		states:     make([]peerState, len(ring.peers)),
		byID:       make(map[string]int, len(ring.peers)),
	}
	for i, p := range ring.peers {
		r.byID[p.ID] = i
		if p.ID == cfg.Self {
			r.self = p
		}
	}
	if r.self.ID == "" {
		return nil, fmt.Errorf("cluster: self id %q not in peer list", cfg.Self)
	}
	return r, nil
}

// Self returns this node's peer entry.
func (r *Router) Self() Peer { return r.self }

// Solo reports a single-node "cluster": ownership is trivially local,
// so callers can skip the routing path entirely.
func (r *Router) Solo() bool { return len(r.ring.peers) == 1 }

// Owner returns the peer owning key and whether that is this node.
func (r *Router) Owner(key string) (Peer, bool) {
	p := r.ring.Owner(key)
	return p, p.ID == r.self.ID
}

// ShouldTry reports whether a forward to p is worth attempting now.
// Healthy peers always are. A down peer (FailureThreshold consecutive
// failures) is skipped, except that every RetryEvery-th skip is let
// through as a half-open probe so a recovered peer rejoins without any
// operator action. Callers that get false should compute locally.
func (r *Router) ShouldTry(p Peer) bool {
	i, ok := r.byID[p.ID]
	if !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.states[i]
	if st.failures < r.threshold {
		return true
	}
	st.skips++
	return st.skips%r.retryEvery == 0
}

// Forward proxies one already-normalized request body to p and returns
// the response body (a service Result in JSON). Network errors and 5xx
// responses count against p's health; 429/503 do not — a busy or
// draining peer is alive, and marking it down would turn routine
// backpressure into false failure detection. Any error means the
// caller should fall back to computing locally.
func (r *Router) Forward(ctx context.Context, p Peer, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+p.Addr+experimentsPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, r.self.ID)
	resp, err := r.client.Do(req)
	if err != nil {
		r.reportDown(p)
		return nil, fmt.Errorf("cluster: forward to %s: %w", p.ID, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		r.reportDown(p)
		return nil, fmt.Errorf("cluster: forward to %s: %w", p.ID, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		r.reportUp(p)
		return out, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Backpressure, not death: the peer answered.
		r.reportUp(p)
		return nil, fmt.Errorf("cluster: peer %s shed the request (%d)", p.ID, resp.StatusCode)
	default:
		r.reportDown(p)
		return nil, fmt.Errorf("cluster: forward to %s: status %d: %s", p.ID, resp.StatusCode, firstLine(out))
	}
}

// reportDown records one failed forward.
func (r *Router) reportDown(p Peer) {
	if i, ok := r.byID[p.ID]; ok {
		r.mu.Lock()
		r.states[i].failures++
		r.mu.Unlock()
	}
}

// reportUp resets p to healthy.
func (r *Router) reportUp(p Peer) {
	if i, ok := r.byID[p.ID]; ok {
		r.mu.Lock()
		r.states[i] = peerState{}
		r.mu.Unlock()
	}
}

// Health snapshots per-peer health in peer-ID order (the /readyz
// payload).
func (r *Router) Health() []PeerHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PeerHealth, len(r.ring.peers))
	for i, p := range r.ring.peers {
		out[i] = PeerHealth{
			ID:       p.ID,
			Addr:     p.Addr,
			Self:     p.ID == r.self.ID,
			Healthy:  r.states[i].failures < r.threshold,
			Failures: r.states[i].failures,
		}
	}
	return out
}

// firstLine clips an error body for inclusion in an error string.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
