// Package cluster shards the phantom-server keyspace across a static
// set of peers: a consistent-hash ring decides which node owns each
// content-addressed request, and a single-hop HTTP proxy forwards
// requests to their owner.
//
// The design leans on the same property as the rest of the serving
// tier: results are deterministic and content-addressed, so ownership
// only has to be *consistent*, never coordinated. There is no
// membership protocol and no replication — the peer list is a flag,
// every node computes the same ring from it, and a dead peer degrades
// to local computation (the receiving node simulates the answer
// itself) rather than to a client-visible error. The worst case of
// any disagreement or failure is duplicated simulation work, which is
// exactly the single-node status quo.
//
// Ownership is a pure function of (peer IDs, virtual-node count, key):
// the ring hashes peer *IDs*, not addresses, so a fleet keeps its
// ownership map when nodes move hosts or ports, and two processes
// given the same -peers flag always agree. The package reads no wall
// clock — peer health is failure-count based, not timeout based — and
// iterates no map in an order-sensitive path, so it sits in
// phantom-vet's determinism scope.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Peer is one phantom-server node: a stable identity (what the ring
// hashes) and where to reach it.
type Peer struct {
	ID   string
	Addr string // host:port
}

// ParsePeers parses a -peers flag: comma-separated id=host:port
// entries. IDs must be unique; they are the ring's hash inputs, so
// renaming a node remaps its share of the keyspace.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=host:port)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, Addr: addr})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return peers, nil
}

// DefaultVNodes is the per-peer virtual-node count. 128 points per
// peer keeps the ownership split within a few percent of fair and a
// one-peer change remapping close to the ideal 1/N.
const DefaultVNodes = 128

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	peer int // index into Ring.peers
}

// Ring is a consistent-hash ring over a static peer set. Construct
// with NewRing; the zero value is unusable.
type Ring struct {
	peers  []Peer // sorted by ID
	points []ringPoint
}

// NewRing builds the ring: vnodes points per peer (0 = DefaultVNodes),
// peers sorted by ID first so the ring is identical no matter how the
// caller ordered the list.
func NewRing(peers []Peer, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]Peer(nil), peers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", sorted[i].ID)
		}
	}
	r := &Ring{
		peers:  sorted,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for pi, p := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s\x00vnode\x00%d", p.ID, v)),
				peer: pi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnode hashes is astronomically
		// unlikely, but the tie-break keeps ownership deterministic
		// even then.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// hash64 maps a string onto the ring: the first 8 bytes of its
// SHA-256, big-endian. SHA-256 keeps the point distribution uniform
// and is the same stdlib primitive the request keys already use.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the peer owning key: the first virtual node clockwise
// of the key's hash.
func (r *Ring) Owner(key string) Peer {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].peer]
}
