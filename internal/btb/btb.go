package btb

import (
	"fmt"

	"phantom/internal/isa"
)

// Prediction is what the BTB hands the frontend for a fetch address:
// the branch class recorded at training time and the predicted target.
// For return-class predictions the target comes from the RSB instead and
// Target is zero here.
type Prediction struct {
	Class isa.BranchClass
	// Target is the predicted branch target. Direct-class entries store a
	// source-relative delta (paper Section 5.2: "the branch predictor
	// serves direct branch targets as PC-relative"), so for an aliased
	// victim the target is victimVA + (trainTarget - trainVA), which is
	// why Figure 5A probes C' = B + (C - A).
	Target uint64
	// TrainedKernel is the privilege mode of the context that created the
	// entry. AutoIBRS compares it with the current mode (Section 6.3).
	TrainedKernel bool
}

type entry struct {
	valid  bool
	tag    uint64
	class  isa.BranchClass
	delta  int64  // direct classes: target - source
	target uint64 // indirect classes: absolute target
	kernel bool   // privilege at training time
	lru    uint64
}

// BTB is the branch target buffer: Sets() × ways entries addressed through
// a Scheme.
type BTB struct {
	scheme *Scheme
	ways   int
	// sets allocate lazily: the index space is large (function bits plus
	// low PC bits) and sparsely used. Set slices are carved from arena in
	// ways-sized runs so that populating thousands of sets (KASLR sweeps
	// touch a new index per probe slot) costs one allocation per chunk
	// instead of one per set. The first arenaUsed entries of the current
	// chunk are handed out; FlushAll rewinds it.
	sets      map[uint32][]entry
	arena     []entry
	arenaUsed int
	tick      uint64

	// Lookups and Hits count queries for diagnostics.
	Lookups uint64
	Hits    uint64
}

// New returns an empty BTB with the given scheme and associativity.
func New(s *Scheme, ways int) *BTB {
	b := &BTB{scheme: s, ways: ways, sets: make(map[uint32][]entry)}
	b.Reset()
	return b
}

// Reset empties the BTB and zeroes its recency clock and counters,
// keeping its allocations: the state New returns.
func (b *BTB) Reset() {
	b.FlushAll()
	b.tick, b.Lookups, b.Hits = 0, 0, 0
}

// arenaChunkSets is how many sets one arena allocation backs.
const arenaChunkSets = 8

// set returns the (lazily created) entry group for an index.
func (b *BTB) set(idx uint32) []entry {
	s := b.sets[idx]
	if s == nil {
		if b.arenaUsed+b.ways > len(b.arena) {
			b.arena = make([]entry, b.ways*arenaChunkSets)
			b.arenaUsed = 0
		}
		next := b.arenaUsed + b.ways
		s = b.arena[b.arenaUsed:next:next]
		b.arenaUsed = next
		b.sets[idx] = s
	}
	return s
}

// Scheme returns the indexing scheme.
func (b *BTB) Scheme() *Scheme { return b.scheme }

// Lookup queries the BTB for a branch-source address in the given privilege
// mode. A hit yields the prediction that the frontend will act on *before*
// the bytes at va are decoded.
func (b *BTB) Lookup(va uint64, kernel bool) (Prediction, bool) {
	b.Lookups++
	set := b.set(b.scheme.Index(va))
	tag := b.scheme.Tag(va, kernel)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == tag {
			b.Hits++
			b.tick++
			e.lru = b.tick
			p := Prediction{Class: e.class, TrainedKernel: e.kernel}
			switch e.class {
			case isa.BrJmp, isa.BrJcc, isa.BrCall:
				p.Target = va + uint64(e.delta)
			case isa.BrJmpInd, isa.BrCallInd:
				p.Target = e.target
			case isa.BrRet:
				// Target served by the RSB.
			}
			return p, true
		}
	}
	return Prediction{}, false
}

// Update installs or refreshes the entry for a branch executed at va in the
// given privilege mode. target is the architectural target the branch
// actually took this time.
func (b *BTB) Update(va uint64, kernel bool, class isa.BranchClass, target uint64) {
	if class == isa.BrNone {
		return
	}
	set := b.set(b.scheme.Index(va))
	tag := b.scheme.Tag(va, kernel)
	b.tick++
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == tag {
			victim = i
			break
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < set[victim].lru {
			victim = i
		}
	}
	e := &set[victim]
	*e = entry{
		valid:  true,
		tag:    tag,
		class:  class,
		kernel: kernel,
		lru:    b.tick,
	}
	switch class {
	case isa.BrJmp, isa.BrJcc, isa.BrCall:
		e.delta = int64(target) - int64(va)
	case isa.BrJmpInd, isa.BrCallInd:
		e.target = target
	}
}

// FlushAll invalidates every entry — the semantics this simulator gives
// IBPB, which on the modeled parts flushes all prediction types
// (Section 8.2: "if IBPB flushes all types of predictions, it mitigates
// all our exploitation primitives").
func (b *BTB) FlushAll() {
	clear(b.sets)
	// The current chunk's sets are gone from the map: zero and reuse it.
	clear(b.arena[:b.arenaUsed])
	b.arenaUsed = 0
}

// Occupancy returns the number of valid entries (diagnostics).
func (b *BTB) Occupancy() int {
	n := 0
	for _, set := range b.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

func (b *BTB) String() string {
	return fmt.Sprintf("BTB(%s, %d sets x %d ways, %d valid)",
		b.scheme.SchemeName, b.scheme.Sets(), b.ways, b.Occupancy())
}
