package mem

// TLB is a small set-associative translation lookaside buffer used only for
// timing: a TLB miss adds a page-walk latency to the access that caused it.
// Functional translation always goes through AddrSpace; the TLB never
// caches permissions (permission checks rerun on every access, which is
// slightly conservative but irrelevant to the Phantom channels).
type TLB struct {
	sets  int
	ways  int
	tags  [][]uint64 // VPN+1 (0 = invalid)
	clock []int      // round-robin replacement per set
	// Hits and Misses count lookups for diagnostics.
	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given geometry.
func NewTLB(sets, ways int) *TLB {
	t := &TLB{sets: sets, ways: ways}
	// One backing array carved into per-set slices; machines are built in
	// bulk during sweeps and per-set allocations dominated TLB setup.
	backing := make([]uint64, sets*ways)
	t.tags = make([][]uint64, sets)
	for i := range t.tags {
		t.tags[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	t.clock = make([]int, sets)
	t.Reset()
	return t
}

// Reset empties the TLB, rewinds its replacement clocks (which Flush
// keeps) and zeroes the statistics: the state NewTLB returns.
func (t *TLB) Reset() {
	t.Flush()
	clear(t.clock)
	t.Hits, t.Misses = 0, 0
}

// Lookup probes the TLB for the page containing va, inserting it on miss,
// and reports whether it was a hit.
func (t *TLB) Lookup(va uint64) bool {
	vpn := va >> PageShift
	set := int(vpn) & (t.sets - 1)
	for _, tag := range t.tags[set] {
		if tag == vpn+1 {
			t.Hits++
			return true
		}
	}
	t.Misses++
	t.tags[set][t.clock[set]] = vpn + 1
	t.clock[set] = (t.clock[set] + 1) % t.ways
	return false
}

// Flush invalidates the whole TLB (context switch with KPTI, or explicit
// invlpg-all).
func (t *TLB) Flush() {
	for _, set := range t.tags {
		for i := range set {
			set[i] = 0
		}
	}
}

// FlushPage invalidates the entry for one page if present.
func (t *TLB) FlushPage(va uint64) {
	vpn := va >> PageShift
	set := int(vpn) & (t.sets - 1)
	for i, tag := range t.tags[set] {
		if tag == vpn+1 {
			t.tags[set][i] = 0
		}
	}
}
