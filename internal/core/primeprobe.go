package core

import (
	"bytes"
	"fmt"

	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
)

// IPrimeProbe implements Prime+Probe [50] on one L1 instruction cache set.
// The L1I is physically indexed by PA[11:6], which equals the page offset
// bits for any page size, so an unprivileged attacker primes set S simply
// by fetching Ways own code lines at page offset S<<6.
type IPrimeProbe struct {
	m     *pipeline.Machine
	addrs []uint64
}

// nopPages is the code an IPrimeProbe maps, one page per way of the
// modeled parts' 8-way L1I (only fetchability matters), shared by every
// prime set and never written: MapUserCode copies it into the pages'
// frames.
var nopPages = bytes.Repeat([]byte{0x90}, 8*mem.PageSize)

// NewIPrimeProbe builds a prime set for I-cache set `set`, mapping Ways
// pages of attacker code at base.
func NewIPrimeProbe(k *kernel.Kernel, base uint64, set int) (*IPrimeProbe, error) {
	m := k.M
	ways := m.Prof.L1I.Ways
	if set < 0 || set >= m.Prof.L1I.Sets {
		return nil, fmt.Errorf("core: I-cache set %d out of range", set)
	}
	pp := &IPrimeProbe{m: m}
	if err := k.MapUserCode(base, nopPages[:ways*mem.PageSize]); err != nil {
		return nil, err
	}
	for i := 0; i < ways; i++ {
		pp.addrs = append(pp.addrs, base+uint64(i)*mem.PageSize+uint64(set)*64)
	}
	return pp, nil
}

// Prime fills the set with the attacker's lines. Lines are flushed first
// so each prime re-establishes the line at *every* level: probing hits L1
// and would otherwise leave the L2 copies' replacement state to rot until
// ambient traffic silently evicted them, turning later single L1 evictions
// into full-miss false signals on long scans.
func (pp *IPrimeProbe) Prime() {
	for _, a := range pp.addrs {
		pp.m.FlushVA(a)
	}
	for round := 0; round < 2; round++ {
		for _, a := range pp.addrs {
			pp.m.TimedFetch(a)
		}
	}
}

// Probe re-fetches the primed lines and returns the total latency; a
// victim fetch into the set evicts one line and raises the total. The
// traversal runs in reverse prime order, the textbook defense against
// self-eviction cascades: a refill then evicts the victim's (oldest)
// line rather than the next primed line the probe is about to touch.
func (pp *IPrimeProbe) Probe() int {
	total := 0
	for i := len(pp.addrs) - 1; i >= 0; i-- {
		lat, _ := pp.m.TimedFetch(pp.addrs[i])
		total += lat
	}
	return total
}

// DPrimeProbe implements Prime+Probe on one L2 (and, inclusively, L1D)
// data-cache set, using a 2 MiB transparent huge page for physical
// contiguity ("For Prime+Probe on L2, we use 2 MiB physically contiguous
// transparent huge pages", Section 7.2). The L2 is indexed by PA[15:6];
// within a huge page PA[20:0] equals the VA offset, so the attacker
// chooses the full index.
type DPrimeProbe struct {
	m     *pipeline.Machine
	addrs []uint64
}

// NewDPrimeProbe builds a prime set for the L2 set that physical address
// pa maps to. hugeVA must be a mapped user huge page.
func NewDPrimeProbe(m *pipeline.Machine, hugeVA uint64, pa uint64) *DPrimeProbe {
	pp := &DPrimeProbe{m: m}
	l2 := m.Prof.L2
	setBits := uint64(l2.Sets*64 - 1) // PA mask of line+set bits
	target := pa & setBits &^ 63
	stride := uint64(l2.Sets * 64)
	for i := 0; i < l2.Ways; i++ {
		pp.addrs = append(pp.addrs, hugeVA+target+uint64(i)*stride)
	}
	return pp
}

// Prime fills the set, flushing first so the lines are re-established at
// every cache level (see IPrimeProbe.Prime).
func (pp *DPrimeProbe) Prime() {
	for _, a := range pp.addrs {
		pp.m.FlushVA(a)
	}
	for round := 0; round < 2; round++ {
		for _, a := range pp.addrs {
			pp.m.TimedLoad(a)
		}
	}
}

// Probe reloads the primed lines and returns the total latency, in
// reverse prime order (see IPrimeProbe.Probe).
func (pp *DPrimeProbe) Probe() int {
	total := 0
	for i := len(pp.addrs) - 1; i >= 0; i-- {
		lat, _ := pp.m.TimedLoad(pp.addrs[i])
		total += lat
	}
	return total
}

// FlushReload implements Flush+Reload [76] on an attacker-accessible line.
type FlushReload struct {
	m  *pipeline.Machine
	va uint64
}

// NewFlushReload monitors the line at va.
func NewFlushReload(m *pipeline.Machine, va uint64) *FlushReload {
	return &FlushReload{m: m, va: va}
}

// Prime flushes the line from the whole hierarchy.
func (fr *FlushReload) Prime() { fr.m.FlushVA(fr.va) }

// Probe reloads the line and returns the access latency; below the
// DRAM latency means someone (the victim, through shared memory such as
// physmap) touched the line.
func (fr *FlushReload) Probe() int {
	lat, _ := fr.m.TimedLoad(fr.va)
	return lat
}
