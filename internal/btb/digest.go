package btb

import "sort"

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
// and LRU rank. Iteration is sorted by set index so the map's range
// order never leaks into the digest.
func (b *BTB) StateDigest() uint64 {
	idxs := make([]uint32, 0, len(b.sets))
	for idx := range b.sets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	h := uint64(fnvOffset)
	for _, idx := range idxs {
		set := b.sets[idx]
		// Rank the ways of this set by recency (ties broken by way
		// number, which is deterministic because ticks are unique).
		order := make([]int, 0, len(set))
		for w := range set {
			if set[w].valid {
				order = append(order, w)
			}
		}
		if len(order) == 0 {
			continue
		}
		sort.Slice(order, func(i, j int) bool {
			return set[order[i]].lru > set[order[j]].lru
		})
		h = fnv1a(h, uint64(idx))
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
// counter, each folded as one multiply because counters fit a byte.
func (p *PHT) StateDigest() uint64 {
	h := uint64(fnvOffset)
	for _, c := range p.counters {
		h = (h ^ uint64(c)) * fnvPrime8
	}
	return h
}
