package btb

// The BTB's set store: which of the sparse set indexes have sets, and
// where their entries live. A simulator fast path, not a modeled
// structure: hits, victims and digests depend only on each index's
// entries, never on where they live.
//
// slots is an open-addressed table with linear probing. A slot packs
// (index+1)<<32 | set number, so zero is an empty slot and one load
// compares the index. The probe starts at a multiplicative hash of the
// index, and the table doubles (with make) before it is half full, so
// probe runs stay short. Sets are never deleted one by one, only all at
// once by FlushAll, so an empty slot always ends a probe run.

const (
	initialSlotBits = 6
	initialSlots    = 1 << initialSlotBits // 512 B of slots per BTB
	initialSets     = 8                    // entry and index capacity of a new BTB
)

// home returns the slot idx's probe starts at.
func (b *BTB) home(idx uint32) uint32 { return (idx * 0x9e3779b1) >> b.shift }

// find returns the set number of idx, or -1 if it has no set. It never
// creates one: a Lookup miss leaves the store as it was.
func (b *BTB) find(idx uint32) int {
	mask := uint32(len(b.slots) - 1)
	want := (uint64(idx) + 1) << 32
	for i := b.home(idx); ; i = (i + 1) & mask {
		s := b.slots[i]
		if s == 0 {
			return -1
		}
		if s&^0xffffffff == want {
			return int(uint32(s))
		}
	}
}

// place writes idx → set n into the first empty slot of idx's probe run.
func (b *BTB) place(idx uint32, n int) {
	mask := uint32(len(b.slots) - 1)
	i := b.home(idx)
	for b.slots[i] != 0 {
		i = (i + 1) & mask
	}
	b.slots[i] = (uint64(idx)+1)<<32 | uint64(n)
}

// create adds an empty set for idx (which has none) and returns its
// number.
func (b *BTB) create(idx uint32) int {
	n := len(b.indexes)
	if 2*(n+1) > len(b.slots) {
		b.slots = make([]uint64, 2*len(b.slots))
		b.shift--
		for m, old := range b.indexes {
			b.place(old, m)
		}
	}
	b.place(idx, n)
	b.indexes = extend(b.indexes, n+1)
	b.indexes[n] = idx
	b.entries = extend(b.entries, (n+1)*b.ways)
	return n
}

// set returns the entries of set n.
func (b *BTB) set(n int) []entry {
	lo, hi := n*b.ways, (n+1)*b.ways
	return b.entries[lo:hi:hi]
}

// clearSlots empties every used slot. Each set's search scans from its
// home for its own packed value, past slots already emptied, and the
// slot it finds is where place put it: slots never move but on growth.
func (b *BTB) clearSlots() {
	mask := uint32(len(b.slots) - 1)
	for n, idx := range b.indexes {
		want := (uint64(idx)+1)<<32 | uint64(n)
		i := b.home(idx)
		for b.slots[i] != want {
			i = (i + 1) & mask
		}
		b.slots[i] = 0
	}
}

// extend returns s resliced to length n, first moving it to a make'd
// array of twice that capacity if n exceeds its own. Entries past len
// are zero, so a new set starts empty: make zeroes them, and FlushAll
// clears the entries it truncates.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, len(s), 2*n)
		copy(t, s)
		s = t
	}
	return s[:n]
}
