package btb

// PHT is a pattern history table of 2-bit saturating counters predicting
// conditional-branch direction, indexed by the low bits of the branch
// PC. The MDS-gadget exploit (Section 7.4) trains the kernel's
// bounds-check jcc to predict taken, which is plain conditional
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

// index picks pc's counter from the low PC bits only. Real parts fold
// global history in as well; this model keeps direction prediction
// purely PC-local so that branches sharing a page offset share a counter
// — the aliasing that lets user-space jcc training set the direction
// seen at a colliding victim (the BTB's XOR functions ignore the low 12
// bits, so colliding addresses always share the counter here).
func (p *PHT) index(pc uint64) uint64 { return pc & p.mask }

// Predict returns the predicted direction for the branch at pc.
func (p *PHT) Predict(pc uint64) bool {
	return p.counters[p.index(pc)] >= 2
}

// Update trains the counter with the architectural outcome.
func (p *PHT) Update(pc uint64, taken bool) {
	i := p.index(pc)
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
