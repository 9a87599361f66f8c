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
	tag    uint64
	delta  int64  // direct classes: target - source
	target uint64 // indirect classes: absolute target
	lru    uint64
	class  isa.BranchClass
	valid  bool
	kernel bool // privilege at training time
}

// BTB is the branch target buffer: Sets() × ways entries addressed through
// a Scheme.
type BTB struct {
	scheme *Scheme
	ways   int
	// Sets exist only once an Update created them: the index space is
	// large (function bits plus low PC bits) and sparsely used, and a
	// Lookup miss creates nothing. Sets are numbered in creation order:
	// set n is entries[n*ways:(n+1)*ways] and indexes[n] its index.
	// slots maps an index to its set number (sets.go). FlushAll
	// empties all three, keeping their capacity.
	slots   []uint64
	shift   uint8 // 32 - log2(len(slots))
	indexes []uint32
	entries []entry
	tick    uint64

	// Lookups and Hits count queries for diagnostics.
	Lookups uint64
	Hits    uint64

	// digestSets and digestWays are StateDigest's scratch orders.
	digestSets, digestWays []int
}

// New returns an empty BTB with the given scheme and associativity.
func New(s *Scheme, ways int) *BTB {
	b := &BTB{
		scheme:  s,
		ways:    ways,
		slots:   make([]uint64, initialSlots),
		shift:   32 - initialSlotBits,
		indexes: make([]uint32, 0, initialSets),
		entries: make([]entry, 0, initialSets*ways),
	}
	b.Reset()
	return b
}

// Reset empties the BTB and zeroes its recency clock and counters,
// keeping its allocations: the state New returns.
func (b *BTB) Reset() {
	b.FlushAll()
	b.tick, b.Lookups, b.Hits = 0, 0, 0
}

// Scheme returns the indexing scheme.
func (b *BTB) Scheme() *Scheme { return b.scheme }

// Lookup queries the BTB for a branch-source address in the given privilege
// mode. A hit yields the prediction that the frontend will act on *before*
// the bytes at va are decoded.
func (b *BTB) Lookup(va uint64, kernel bool) (Prediction, bool) {
	b.Lookups++
	idx, tag := b.scheme.key(va, kernel)
	n := b.find(idx)
	if n < 0 {
		return Prediction{}, false
	}
	set := b.set(n)
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
	idx, tag := b.scheme.key(va, kernel)
	n := b.find(idx)
	if n < 0 {
		n = b.create(idx)
	}
	set := b.set(n)
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
//
// It costs what was used: each created set's slot and entries, not the
// index space or the table.
func (b *BTB) FlushAll() {
	b.clearSlots()
	clear(b.entries)
	b.entries = b.entries[:0]
	b.indexes = b.indexes[:0]
}

// Occupancy returns the number of valid entries (diagnostics).
func (b *BTB) Occupancy() int {
	n := 0
	for _, e := range b.entries {
		if e.valid {
			n++
		}
	}
	return n
}

func (b *BTB) String() string {
	return fmt.Sprintf("BTB(%s, %d sets x %d ways, %d valid)",
		b.scheme.SchemeName, b.scheme.Sets(), b.ways, b.Occupancy())
}
