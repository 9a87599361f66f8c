package core

import (
	"testing"

	"phantom/internal/kernel"
	"phantom/internal/uarch"
)

// detects runs one calibrated P1/P2 round: the mean probe of 8 quiet
// rounds (invoking quietInvoke) plus half the L2 hit latency is the
// threshold that a probe after injecting target at victim and invoking
// invoke must exceed.
func detects(t *testing.T, a *Attack, ch channel, victim, target uint64, quietInvoke, invoke func() error) bool {
	t.Helper()
	base, err := quiet(ch, 8, quietInvoke)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := a.observe(ch, victim, target, invoke)
	if err != nil {
		t.Fatal(err)
	}
	return float64(probe) > base+float64(a.K.M.Prof.L2.HitLatency)/2
}

func TestP1DistinguishesMappedFromUnmapped(t *testing.T) {
	k := bootZen2(t, 21, 1) // calibrated noise: primitives must still work
	a, err := NewAttack(k)
	if err != nil {
		t.Fatal(err)
	}
	victim := k.Symbol("covert_branch_site")
	const set = 33
	pp, err := NewIPrimeProbe(k, 0x7f1000000000, set)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func() error { return a.Syscall(kernel.SysCovertBranch, 0, 0) }

	mapped := k.ImageBase + 0x3000 + uint64(set)<<6
	unmapped := kernel.KernelRegionBase - 0x40000000 + uint64(set)<<6

	hits, misses := 0, 0
	for i := 0; i < 8; i++ {
		if detects(t, a, pp, victim, mapped, invoke, invoke) {
			hits++
		}
		if detects(t, a, pp, victim, unmapped, invoke, invoke) {
			misses++
		}
	}
	if hits < 6 {
		t.Errorf("P1 detected the mapped target only %d/8 times", hits)
	}
	if misses > 2 {
		t.Errorf("P1 false-positived on the unmapped target %d/8 times", misses)
	}
}

func TestP1DetectsNXAsUnmapped(t *testing.T) {
	// The P1/P2 distinction: physmap is mapped but NX, so P1 sees nothing.
	k := bootZen2(t, 22, 0)
	a, err := NewAttack(k)
	if err != nil {
		t.Fatal(err)
	}
	victim := k.Symbol("covert_branch_site")
	nxTarget := k.PhysmapVA(0x40000000) | (33 << 6)
	pp, err := NewIPrimeProbe(k, 0x7f1000000000, 33)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func() error { return a.Syscall(kernel.SysCovertBranch, 0, 0) }
	if detects(t, a, pp, victim, nxTarget, invoke, invoke) {
		t.Fatal("P1 signalled on a mapped but non-executable target")
	}
}

// p2Lab sets up the P2 round of the covert execute channel on k: the
// injected target is the covert module's load gadget, which dereferences
// the syscall argument, and a DPrimeProbe watches the L2 set of a
// physmap line.
func p2Lab(t *testing.T, k *kernel.Kernel) (a *Attack, pp *DPrimeProbe, invoke func(addr uint64) func() error, probePA uint64) {
	t.Helper()
	a, err := NewAttack(k)
	if err != nil {
		t.Fatal(err)
	}
	probePA = uint64(0x40000000) | 0x840
	hugeVA := uint64(0x7f2000000000)
	if _, err := k.AllocUserHuge(hugeVA); err != nil {
		t.Fatal(err)
	}
	invoke = func(addr uint64) func() error {
		return func() error { return a.Syscall(kernel.SysCovertBranch, 0, addr) }
	}
	return a, NewDPrimeProbe(k.M, hugeVA, probePA), invoke, probePA
}

func TestP2DistinguishesMappedFromUnmapped(t *testing.T) {
	k := bootZen2(t, 23, 1)
	a, pp, invoke, probePA := p2Lab(t, k)
	victim := k.Symbol("covert_branch_site")
	gadget := k.Symbol("covert_exec_gadget") // loads [r13]; r13 <- rsi

	mapped := k.PhysmapVA(probePA)
	unmapped := kernel.PhysmapRegionBase - 0x2000 + 0x840

	hits, misses := 0, 0
	for i := 0; i < 8; i++ {
		if detects(t, a, pp, victim, gadget, invoke(0), invoke(mapped)) {
			hits++
		}
		if detects(t, a, pp, victim, gadget, invoke(0), invoke(unmapped)) {
			misses++
		}
	}
	if hits < 6 {
		t.Errorf("P2 detected mapped memory only %d/8 times", hits)
	}
	if misses > 2 {
		t.Errorf("P2 false-positived %d/8 times", misses)
	}
}

func TestP2DeadWithoutExecuteWindow(t *testing.T) {
	k, err := kernel.Boot(uarch.Zen3(), kernel.Config{Seed: 24, NoiseLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	a, pp, invoke, probePA := p2Lab(t, k)
	victim := k.Symbol("covert_branch_site")
	gadget := k.Symbol("covert_exec_gadget")
	if detects(t, a, pp, victim, gadget, invoke(0), invoke(k.PhysmapVA(probePA))) {
		t.Fatal("P2 signalled on Zen3, which has no Phantom execute window")
	}
}

func TestP3LeaksRegisterByte(t *testing.T) {
	// Leak the low byte of the register the MDS module loads, via the P3
	// disclosure gadget. (The full MDS exploit composes this with a
	// Spectre window; here the register value is architectural.)
	k := bootZen2(t, 25, 0)
	a, err := NewAttack(k)
	if err != nil {
		t.Fatal(err)
	}

	hugeVA := uint64(0x7f3000000000)
	pa, err := k.AllocUserHuge(hugeVA)
	if err != nil {
		t.Fatal(err)
	}
	reloadKVA := k.PhysmapVA(pa)

	// The MDS module loads R9 = array[idx] architecturally for in-bounds
	// idx; its disclosure gadget encodes R9's low byte.
	victim := k.Symbol("mds_call_site")
	gadget := k.Symbol("mds_disclosure")
	secretIdx := uint64(0x37) // array[0x37] = 0x37 (boot pattern), next bytes 0x38..

	rb := reloadBuffer{m: k.M, va: hugeVA}
	rb.flush()
	if err := a.InjectPrediction(victim, gadget); err != nil {
		t.Fatal(err)
	}
	if err := a.Syscall(kernel.SysMDSRead, secretIdx, reloadKVA); err != nil {
		t.Fatal(err)
	}
	got, ok := rb.scan()
	if !ok {
		t.Fatal("P3 saw no signal")
	}
	// array[idx] is loaded as a 64-bit little-endian word; its low byte
	// is the array byte at idx.
	want, err := k.M.KernelAS.Read8(k.ArrayBase() + secretIdx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("P3 leaked %#x, want %#x", got, want)
	}
}
