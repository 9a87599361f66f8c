package btb

import (
	"cmp"
	"slices"
)

// This file gives every predictor structure a StateDigest: a 64-bit
// FNV-1a hash over its *prediction-relevant* contents. The differential
// search (internal/search) compares digests between a mispredict-on and
// a mispredict-off run of the same program to detect predictor-state
// divergence — wrong-path BTB lookups refresh entry recency (Lookup
// bumps lru on a hit), so speculation that never retires still moves
// replacement state, exactly the class of side effect the Canella
// taxonomy files under "microarchitectural state the transient path
// touched".
//
// Digests hash recency as *rank within a set* (0 = most recent), never
// raw tick values: two machines that performed a different number of
// lookups but would replace the same victims must digest identically.

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
	// fnvPrime8 is fnvPrime^8 mod 2^64: fnv1a of a value below 256 XORs
	// it in and multiplies eight times, seven of them after XORing in a
	// zero byte, so it equals (h ^ v) * fnvPrime8.
	fnvPrime8 = 0x1efac7090aef4a21
)

func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// StateDigest hashes every valid BTB entry with its set index, fields,
// and LRU rank. Sets are visited in index order, so neither creation
// order nor the set store's layout leaks into the digest.
// The set and way orders are sorted in scratch slices the BTB keeps, so
// a digest allocates nothing once they have grown to the BTB's size.
func (b *BTB) StateDigest() uint64 {
	sets := b.digestSets[:0]
	for n := range b.indexes {
		sets = append(sets, n)
	}
	slices.SortFunc(sets, func(i, j int) int { return cmp.Compare(b.indexes[i], b.indexes[j]) })
	b.digestSets = sets

	h := uint64(fnvOffset)
	for _, n := range sets {
		set := b.set(n)
		// Rank the ways of this set by recency (most recent first; ticks
		// of valid entries are unique, so the order is total).
		order := b.digestWays[:0]
		for w := range set {
			if set[w].valid {
				order = append(order, w)
			}
		}
		b.digestWays = order
		if len(order) == 0 {
			continue
		}
		slices.SortFunc(order, func(i, j int) int { return cmp.Compare(set[j].lru, set[i].lru) })
		h = fnv1a(h, uint64(b.indexes[n]))
		for rank, w := range order {
			e := &set[w]
			h = fnv1a(h, uint64(rank))
			h = fnv1a(h, e.tag)
			h = fnv1a(h, uint64(e.class))
			h = fnv1a(h, uint64(e.delta))
			h = fnv1a(h, e.target)
			if e.kernel {
				h = fnv1a(h, 1)
			} else {
				h = fnv1a(h, 0)
			}
		}
	}
	return h
}

// StateDigest hashes the live RSB entries in pop order plus the depth.
func (r *RSB) StateDigest() uint64 {
	h := uint64(fnvOffset)
	h = fnv1a(h, uint64(r.depth))
	for i := 0; i < r.depth; i++ {
		idx := (r.top - 1 - i + len(r.entries)*2) % len(r.entries)
		h = fnv1a(h, r.entries[idx])
	}
	return h
}

// StateDigest hashes the full direction-counter array: fnv1a of every
// counter, each folded as one multiply because counters fit a byte. A
// word of 64 counters Update never wrote holds 64 ones, and folds in one
// step (untouchedFold).
func (p *PHT) StateDigest() uint64 {
	h := uint64(fnvOffset)
	for w, t := range p.touched {
		cs := p.word(w)
		if t == 0 && len(cs) == 64 {
			h = h*untouchedMul + untouchedAdd[h&1]
			continue
		}
		for _, c := range cs {
			h = (h ^ uint64(c)) * fnvPrime8
		}
	}
	return h
}

// untouchedMul and untouchedAdd fold 64 counters of 1 as one affine
// step. Folding a 1, (h^1)*fnvPrime8, is h*fnvPrime8 + fnvPrime8 for an
// even h and h*fnvPrime8 - fnvPrime8 for an odd one, and its result has
// the other parity, since fnvPrime8 is odd. So 64 folds from h are
// h*fnvPrime8^64 plus a constant that depends only on h's parity.
var untouchedMul, untouchedAdd = untouchedFold()

func untouchedFold() (mul uint64, add [2]uint64) {
	mul = 1
	for i := 0; i < 64; i++ {
		mul *= fnvPrime8
	}
	for parity := range add {
		h := uint64(parity)
		for i := 0; i < 64; i++ {
			h = (h ^ 1) * fnvPrime8
		}
		add[parity] = h - uint64(parity)*mul
	}
	return mul, add
}
