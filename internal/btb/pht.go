package btb

// PHT is a pattern history table of 2-bit saturating counters predicting
// conditional-branch direction, indexed by the branch PC hashed with the
// global branch history. The MDS-gadget exploit (Section 7.4) trains the
// kernel's bounds-check jcc to predict taken, which is plain conditional
// misprediction — this table provides it.
type PHT struct {
	counters []uint8
	mask     uint64
}

// NewPHT returns a PHT with 2^indexBits counters initialized to weakly
// not-taken (1).
func NewPHT(indexBits int) *PHT {
	n := 1 << uint(indexBits)
	p := &PHT{counters: make([]uint8, n), mask: uint64(n - 1)}
	p.Reset()
	return p
}

// Reset puts every counter back to weakly not-taken (1): the state
// NewPHT returns.
func (p *PHT) Reset() {
	for i := range p.counters {
		p.counters[i] = 1
	}
}

func (p *PHT) index(pc, bhb uint64) uint64 {
	// Indexed by the low PC bits only. Real parts fold global history in
	// as well; this model keeps direction prediction purely PC-local so
	// that branches sharing a page offset share a counter — the aliasing
	// that lets user-space jcc training set the direction seen at a
	// colliding victim (the BTB's XOR functions ignore the low 12 bits,
	// so colliding addresses always share the counter here).
	_ = bhb
	return pc & p.mask
}

// Predict returns the predicted direction for the branch at pc under the
// given history.
func (p *PHT) Predict(pc, bhb uint64) bool {
	return p.counters[p.index(pc, bhb)] >= 2
}

// Update trains the counter with the architectural outcome.
func (p *PHT) Update(pc, bhb uint64, taken bool) {
	i := p.index(pc, bhb)
	c := p.counters[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.counters[i] = c
}

// BHB is the branch history buffer: a folded shift register of recent
// control-flow edges used to index the PHT (and, on real parts, the BTB
// tag selection — see Section 2.1). The fold keeps 64 bits of rolling
// history.
type BHB struct {
	value uint64
}

// Value returns the current history fingerprint.
func (b *BHB) Value() uint64 { return b.value }

// Record folds one taken control-flow edge into the history.
func (b *BHB) Record(src, dst uint64) {
	footprint := (src >> 2) ^ (dst << 7) ^ (dst >> 19)
	b.value = (b.value<<5 | b.value>>59) ^ footprint
}

// Clear zeroes the history (context switch barrier).
func (b *BHB) Clear() { b.value = 0 }
