package cluster

import (
	"fmt"
	"testing"
)

// corpus is a fixed key set shaped like real request keys (hex
// SHA-256 digests are uniform; any deterministic strings do for
// measuring remapping, since the ring hashes them itself).
func corpus(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("request-key-%06d", i)
	}
	return keys
}

func peersN(n int) []Peer {
	out := make([]Peer, n)
	for i := range out {
		out[i] = Peer{ID: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	return out
}

func ownersOf(t *testing.T, r *Ring, keys []string) []string {
	t.Helper()
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = r.Owner(k).ID
	}
	return out
}

// TestRingStabilityOnAdd pins the consistent-hashing contract: adding
// one peer to an N-ring remaps only about 1/(N+1) of the keyspace.
// A naive hash-mod-N router remaps ~N/(N+1); the midpoint between the
// two bounds is far from both, so the tolerances below cannot pass on
// a broken ring.
func TestRingStabilityOnAdd(t *testing.T) {
	keys := corpus(4096)
	for _, n := range []int{2, 3, 4, 7} {
		before, err := NewRing(peersN(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(peersN(n+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ownersOf(t, before, keys), ownersOf(t, after, keys)
		moved := 0
		for i := range keys {
			if a[i] != b[i] {
				moved++
				// Consistent hashing only ever moves keys TO the new
				// peer on an add; a key hopping between old peers
				// means the ring is unstable.
				if b[i] != fmt.Sprintf("n%d", n+1) {
					t.Fatalf("n=%d: key %s moved %s -> %s, not to the new peer", n, keys[i], a[i], b[i])
				}
			}
		}
		frac := float64(moved) / float64(len(keys))
		ideal := 1 / float64(n+1)
		if frac < ideal*0.6 || frac > ideal*1.6 {
			t.Errorf("adding peer to %d-ring remapped %.1f%% of keys, want ~%.1f%%",
				n, 100*frac, 100*ideal)
		}
	}
}

// TestRingStabilityOnRemove is the same contract for the failure/
// decommission direction: removing one peer remaps only that peer's
// ~1/N share, and every remapped key belonged to the removed peer.
func TestRingStabilityOnRemove(t *testing.T) {
	keys := corpus(4096)
	const n = 4
	full, err := NewRing(peersN(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := NewRing(peersN(n-1), 0) // drops n4
	if err != nil {
		t.Fatal(err)
	}
	a, b := ownersOf(t, full, keys), ownersOf(t, smaller, keys)
	moved := 0
	for i := range keys {
		if a[i] != b[i] {
			moved++
			if a[i] != "n4" {
				t.Fatalf("key %s moved %s -> %s though its owner was not removed", keys[i], a[i], b[i])
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	ideal := 1.0 / n
	if frac < ideal*0.6 || frac > ideal*1.6 {
		t.Errorf("removing 1 of %d peers remapped %.1f%% of keys, want ~%.1f%%", n, 100*frac, 100*ideal)
	}
}

// TestRingDeterministicAcrossConstruction: ownership must not depend
// on peer-list order, vnode insertion order, or anything process-local
// — two nodes given the same -peers flag must agree on every key.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	keys := corpus(1024)
	peers := peersN(5)
	reversed := make([]Peer, len(peers))
	for i, p := range peers {
		reversed[len(peers)-1-i] = p
	}
	rotated := append(append([]Peer(nil), peers[2:]...), peers[:2]...)
	base, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := ownersOf(t, base, keys)
	for name, order := range map[string][]Peer{"reversed": reversed, "rotated": rotated} {
		r, err := NewRing(order, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := ownersOf(t, r, keys)
		for i := range keys {
			if got[i] != want[i] {
				t.Fatalf("%s peer order changed owner of %s: %s != %s", name, keys[i], got[i], want[i])
			}
		}
	}
}

// TestRingBalance: with DefaultVNodes the per-peer share stays within
// a factor of the fair split, so no node silently does most of the
// simulating.
func TestRingBalance(t *testing.T) {
	keys := corpus(8192)
	peers := peersN(3)
	r, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.Owner(k).ID]++
	}
	fair := len(keys) / 3
	for _, p := range peers {
		c := counts[p.ID]
		if c < fair/2 || c > fair*2 {
			t.Errorf("peer %s owns %d of %d keys (fair share %d)", p.ID, c, len(keys), fair)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n1=127.0.0.1:8437, n2=127.0.0.1:8438,n3=10.0.0.3:80")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[1] != (Peer{ID: "n2", Addr: "127.0.0.1:8438"}) {
		t.Fatalf("ParsePeers = %+v", peers)
	}
	for _, bad := range []string{"", "n1", "n1=", "=addr", "n1=a,n1=b"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) succeeded, want error", bad)
		}
	}
}

func TestNewRingRejectsBadPeerSets(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty peer set accepted")
	}
	dup := []Peer{{ID: "a", Addr: "x"}, {ID: "a", Addr: "y"}}
	if _, err := NewRing(dup, 0); err == nil {
		t.Error("duplicate peer IDs accepted")
	}
}
