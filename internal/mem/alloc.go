package mem

import (
	"fmt"
	"math/rand"
)

// FrameAllocator hands out physical frames. It can allocate sequentially
// (kernel boot allocations) or at randomized physical addresses (user
// anonymous memory), which is what makes the paper's Table 5 experiment —
// guessing the physical address of a user page through physmap — a search
// problem rather than a lookup.
type FrameAllocator struct {
	phys *PhysMem
	next uint64
	rng  *rand.Rand
	used map[uint64]*regionBits // allocated frames, keyed by huge-frame number
}

// framesPerRegion is how many 4 KiB frames one 2 MiB region holds.
const framesPerRegion = HugePageSize / PageSize

// regionBits marks the allocated frames of one 2 MiB region, one bit each.
type regionBits [framesPerRegion / 64]uint64

// NewFrameAllocator returns an allocator over pm. Sequential allocations
// start at base. rng drives randomized placement; it must not be nil.
func NewFrameAllocator(pm *PhysMem, base uint64, rng *rand.Rand) *FrameAllocator {
	return &FrameAllocator{phys: pm, next: base, rng: rng, used: make(map[uint64]*regionBits)}
}

// AllocSeq allocates length bytes of physically contiguous frames at the
// next sequential address and returns the base physical address.
func (fa *FrameAllocator) AllocSeq(length uint64) uint64 {
	length = (length + PageSize - 1) &^ (PageSize - 1)
	base := fa.next
	fa.markUsed(base, length)
	fa.next = base + length
	return base
}

// AllocRandomHuge allocates one physically contiguous, 2 MiB-aligned huge
// frame at a random physical address below the advertised memory size,
// modeling a transparent huge page whose physical placement the attacker
// does not know. It returns an error if it cannot find a free slot.
func (fa *FrameAllocator) AllocRandomHuge() (uint64, error) {
	slots := fa.phys.Size() / HugePageSize
	if slots == 0 {
		return 0, fmt.Errorf("mem: physical memory smaller than a huge page")
	}
	for attempt := 0; attempt < 4096; attempt++ {
		slot := uint64(fa.rng.Int63n(int64(slots)))
		base := slot * HugePageSize
		if fa.rangeFree(base, HugePageSize) {
			fa.markUsed(base, HugePageSize)
			return base, nil
		}
	}
	return 0, fmt.Errorf("mem: no free huge frame found")
}

// frameSpan returns the frame numbers [first, end) that a range covers:
// the frame of base+off for every multiple off of PageSize below length.
func frameSpan(base, length uint64) (first, end uint64) {
	first = base >> PageShift
	return first, first + (length+PageSize-1)/PageSize
}

// rangeFree reports whether no frame of the range is allocated.
func (fa *FrameAllocator) rangeFree(base, length uint64) bool {
	for f, end := frameSpan(base, length); f < end; {
		lo := f % framesPerRegion
		hi := min(framesPerRegion, lo+end-f)
		if b := fa.used[f/framesPerRegion]; b != nil && b.any(lo, hi) {
			return false
		}
		f += hi - lo
	}
	return true
}

// markUsed marks every frame of the range allocated.
func (fa *FrameAllocator) markUsed(base, length uint64) {
	for f, end := frameSpan(base, length); f < end; {
		lo := f % framesPerRegion
		hi := min(framesPerRegion, lo+end-f)
		b := fa.used[f/framesPerRegion]
		if b == nil {
			b = new(regionBits)
			fa.used[f/framesPerRegion] = b
		}
		b.set(lo, hi)
		f += hi - lo
	}
}

// any reports whether any of the region's frames [lo, hi) is allocated.
// A whole region, the range AllocRandomHuge tests, compares at once.
func (b *regionBits) any(lo, hi uint64) bool {
	if lo == 0 && hi == framesPerRegion {
		return *b != regionBits{}
	}
	for w := lo / 64; w*64 < hi; w++ {
		if b[w]&wordMask(w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// set marks the region's frames [lo, hi) allocated. A whole region, the
// range AllocRandomHuge takes and most of what Reserve covers, is one
// store.
func (b *regionBits) set(lo, hi uint64) {
	if lo == 0 && hi == framesPerRegion {
		for w := range b {
			b[w] = ^uint64(0)
		}
		return
	}
	for w := lo / 64; w*64 < hi; w++ {
		b[w] |= wordMask(w, lo, hi)
	}
}

// wordMask returns the bits of bitmap word w that frames [lo, hi) of a
// region occupy.
func wordMask(w, lo, hi uint64) uint64 {
	m := ^uint64(0)
	if lo > w*64 {
		m <<= lo - w*64
	}
	if hi < w*64+64 {
		m &= ^uint64(0) >> (w*64 + 64 - hi)
	}
	return m
}

// Reserve marks [base, base+length) as allocated without returning it, used
// to model memory grabbed by firmware/other processes so that the physical
// address space is realistically fragmented.
func (fa *FrameAllocator) Reserve(base, length uint64) {
	fa.markUsed(base, length)
}
