package btb

import (
	"math/rand"
	"sort"
	"testing"

	"phantom/internal/isa"
)

// refBTB is the BTB as a map of lazily created sets, read through the
// parity forms: the reference the set store and the lane tables must
// reproduce lookup by lookup and digest by digest.
type refBTB struct {
	s    *Scheme
	ways int
	sets map[uint32][]entry
	tick uint64
}

func (r *refBTB) set(idx uint32) []entry {
	if r.sets[idx] == nil {
		r.sets[idx] = make([]entry, r.ways)
	}
	return r.sets[idx]
}

func (r *refBTB) lookup(va uint64, kernel bool) (Prediction, bool) {
	set, tag := r.set(r.s.parityIndex(va)), r.s.parityTag(va, kernel)
	for i := range set {
		if e := &set[i]; e.valid && e.tag == tag {
			r.tick++
			e.lru = r.tick
			p := Prediction{Class: e.class, TrainedKernel: e.kernel}
			switch e.class {
			case isa.BrJmp, isa.BrJcc, isa.BrCall:
				p.Target = va + uint64(e.delta)
			case isa.BrJmpInd, isa.BrCallInd:
				p.Target = e.target
			}
			return p, true
		}
	}
	return Prediction{}, false
}

func (r *refBTB) update(va uint64, kernel bool, class isa.BranchClass, target uint64) {
	if class == isa.BrNone {
		return
	}
	set, tag := r.set(r.s.parityIndex(va)), r.s.parityTag(va, kernel)
	r.tick++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag || !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = entry{valid: true, tag: tag, class: class, kernel: kernel, lru: r.tick}
	switch class {
	case isa.BrJmp, isa.BrJcc, isa.BrCall:
		set[victim].delta = int64(target) - int64(va)
	case isa.BrJmpInd, isa.BrCallInd:
		set[victim].target = target
	}
}

func (r *refBTB) occupancy() int {
	n := 0
	for _, set := range r.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

// digest is StateDigest over the map, empty sets skipped.
func (r *refBTB) digest() uint64 {
	idxs := make([]uint32, 0, len(r.sets))
	for idx := range r.sets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	h := uint64(fnvOffset)
	for _, idx := range idxs {
		set := r.sets[idx]
		var order []int
		for w := range set {
			if set[w].valid {
				order = append(order, w)
			}
		}
		if len(order) == 0 {
			continue
		}
		sort.Slice(order, func(i, j int) bool { return set[order[i]].lru > set[order[j]].lru })
		h = fnv1a(h, uint64(idx))
		for rank, w := range order {
			e := &set[w]
			h = fnv1a(h, uint64(rank))
			h = fnv1a(h, e.tag)
			h = fnv1a(h, uint64(e.class))
			h = fnv1a(h, uint64(e.delta))
			h = fnv1a(h, e.target)
			k := uint64(0)
			if e.kernel {
				k = 1
			}
			h = fnv1a(h, k)
		}
	}
	return h
}

// aliasPool returns n groups of VAs, each group sharing one set index
// under several tags, so training a group overfills its set and the LRU
// victim choice decides what survives.
func aliasPool(t *testing.T, s *Scheme, rng *rand.Rand, n int) [][]uint64 {
	t.Helper()
	// Differences that keep the index and move the tag.
	var sameSet []uint64
	for len(sameSet) < 3 {
		d := rng.Uint64() & 0xfffffffff000
		if d != 0 && s.parityIndex(d) == 0 && s.parityTag(d, false) != 0 {
			sameSet = append(sameSet, d)
		}
	}
	groups := make([][]uint64, n)
	for i := range groups {
		base := rng.Uint64() & 0x7ffffffffff0
		groups[i] = []uint64{base, base ^ sameSet[0], base ^ sameSet[1], base ^ sameSet[2], base ^ sameSet[0] ^ sameSet[1]}
	}
	return groups
}

// TestSetStoreMatchesMapReference drives the BTB and the map reference
// through one randomized Update/Lookup/FlushAll sequence per scheme:
// every prediction (so every LRU victim choice), the occupancy and the
// digest must agree throughout, across several doublings of the slot
// table and after Reset.
func TestSetStoreMatchesMapReference(t *testing.T) {
	classes := []isa.BranchClass{isa.BrJmp, isa.BrJcc, isa.BrCall, isa.BrJmpInd, isa.BrCallInd, isa.BrRet, isa.BrNone}
	for _, s := range []*Scheme{NewZen12Scheme("zen2"), NewZen34Scheme("zen3"), NewIntelScheme("intel")} {
		t.Run(s.SchemeName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			groups := aliasPool(t, s, rng, 600) // 600 sets: the 64-slot table doubles four times
			b := New(s, 2)
			ref := &refBTB{s: s, ways: 2, sets: make(map[uint32][]entry)}
			check := func(step int) {
				t.Helper()
				if b.Occupancy() != ref.occupancy() || b.StateDigest() != ref.digest() {
					t.Fatalf("step %d: occupancy %d digest %#x, reference %d %#x",
						step, b.Occupancy(), b.StateDigest(), ref.occupancy(), ref.digest())
				}
			}
			for step := 0; step < 60000; step++ {
				g := groups[rng.Intn(len(groups))]
				va, kernel := g[rng.Intn(len(g))], rng.Intn(4) == 0
				switch op := rng.Intn(1000); {
				case op == 0:
					b.FlushAll()
					clear(ref.sets)
					check(step)
				case op < 500:
					class, target := classes[rng.Intn(len(classes))], rng.Uint64()&0x7fffffffffff
					b.Update(va, kernel, class, target)
					ref.update(va, kernel, class, target)
				default:
					got, gotOK := b.Lookup(va, kernel)
					want, wantOK := ref.lookup(va, kernel)
					if got != want || gotOK != wantOK {
						t.Fatalf("step %d: Lookup(%#x, %v) = %+v %v, reference %+v %v", step, va, kernel, got, gotOK, want, wantOK)
					}
				}
				if step%997 == 0 {
					check(step)
				}
			}
			check(-1)
			if len(b.slots) < 1024 {
				t.Fatalf("slot table has %d slots; the sequence never grew it past 512", len(b.slots))
			}
			b.Reset()
			ref = &refBTB{s: s, ways: 2, sets: make(map[uint32][]entry)}
			check(-2)
			for _, g := range groups[:50] {
				for _, va := range g {
					b.Update(va, false, isa.BrJmpInd, va+0x40)
					ref.update(va, false, isa.BrJmpInd, va+0x40)
				}
			}
			check(-3)
		})
	}
}

// TestLookupMissCreatesNothing: a miss on an index with no set leaves
// the store as it was and allocates nothing.
func TestLookupMissCreatesNothing(t *testing.T) {
	b := New(NewZen34Scheme("zen3"), 2)
	b.Update(0x400000, false, isa.BrJmpInd, 0x500000)
	sets, digest := len(b.indexes), b.StateDigest()
	va := uint64(0x7f0000000000)
	allocs := testing.AllocsPerRun(10000, func() {
		va += 0x1000
		if _, ok := b.Lookup(va, false); ok {
			t.Fatalf("Lookup(%#x) hit an untrained index", va)
		}
	})
	if allocs != 0 {
		t.Errorf("a Lookup miss allocates %v times", allocs)
	}
	if len(b.indexes) != sets || b.StateDigest() != digest {
		t.Errorf("misses created sets: %d sets, want %d", len(b.indexes), sets)
	}
}
