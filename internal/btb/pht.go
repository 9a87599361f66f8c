package btb

// PHT is a pattern history table of 2-bit saturating counters predicting
// conditional-branch direction, indexed by the low bits of the branch
// PC. The MDS-gadget exploit (Section 7.4) trains the kernel's
// bounds-check jcc to predict taken, which is plain conditional
// misprediction — this table provides it.
//
// A program trains a handful of its counters, so the table also keeps
// which ones Update wrote since the last Reset: Reset rewrites only the
// 64-counter words that hold them, and StateDigest folds every other
// word in one step (digest.go).
type PHT struct {
	counters []uint8
	touched  []uint64 // bit i%64 of word i/64: Update wrote counters[i]
	mask     uint64
}

// NewPHT returns a PHT with 2^indexBits counters initialized to weakly
// not-taken (1).
func NewPHT(indexBits int) *PHT {
	n := 1 << uint(indexBits)
	p := &PHT{counters: make([]uint8, n), touched: make([]uint64, (n+63)/64), mask: uint64(n - 1)}
	fillOnes(p.counters)
	return p
}

func fillOnes(cs []uint8) {
	for i := range cs {
		cs[i] = 1
	}
}

// Reset puts every counter back to weakly not-taken (1), the state
// NewPHT returns: only the counters Update wrote can differ from it.
func (p *PHT) Reset() {
	for w, t := range p.touched {
		if t != 0 {
			fillOnes(p.word(w))
			p.touched[w] = 0
		}
	}
}

// word returns the counters of touched word w: 64 of them, or all of a
// table smaller than that.
func (p *PHT) word(w int) []uint8 {
	return p.counters[w*64 : min(w*64+64, len(p.counters))]
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
	p.touched[i>>6] |= 1 << (i & 63)
}
