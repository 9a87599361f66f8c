package mem

import (
	"math/rand"
	"testing"
)

// refTranslate is TranslateV's rule applied to the page map and the
// linear ranges read directly, with no memo in between.
func refTranslate(as *AddrSpace, va uint64, kind AccessKind, user bool) (uint64, Fault, bool) {
	pte, ok := as.Lookup(va)
	if !ok {
		return 0, Fault{VA: va, Kind: kind, NotPresent: true}, false
	}
	if user && pte.Perm&PermUser == 0 ||
		kind == AccessWrite && pte.Perm&PermWrite == 0 ||
		kind == AccessFetch && pte.Perm&PermExec == 0 {
		return 0, Fault{VA: va, Kind: kind}, false
	}
	return pte.PA + va&(PageSize-1), Fault{}, true
}

// TestTranslateMemoMatchesPageMap drives an address space through random
// Map, MapHuge, Unmap, SetPerm, AddLinearRange and Reset calls and checks
// after each that TranslateV, memo and all, answers every access kind at
// both privileges exactly as the page map and the linear ranges read
// directly do. The pages probed are the prime sets, one page sharing a
// memo slot with each prime page, a 2 MiB huge region over the first two
// prime sets, and pages inside and around the linear ranges.
func TestTranslateMemoMatchesPageMap(t *testing.T) {
	const hugeVA = 0x7f3000000000 // covers prime sets 0 and 1
	const linearVA = 0xffff888000000000
	vas := primeSetVAs()
	for _, va := range primeSetVAs() {
		slot := memoSlot(va >> PageShift)
		vpn := uint64(0x7f2000000000) >> PageShift
		for memoSlot(vpn) != slot {
			vpn++
		}
		vas = append(vas, vpn<<PageShift)
	}
	for i := uint64(0); i < 16; i++ {
		vas = append(vas, hugeVA+HugePageSize-8*PageSize+i*PageSize)
	}
	for i := uint64(0); i < 96; i++ {
		vas = append(vas, linearVA+i*11*PageSize)
	}
	perms := []Perm{
		PermRead, PermRead | PermWrite, PermRead | PermExec, PermRead | PermUser,
		PermRead | PermWrite | PermUser, PermRead | PermExec | PermUser, 0,
	}
	rng := rand.New(rand.NewSource(1))
	as := NewAddrSpace(NewPhysMem(1 << 34))
	page := func() uint64 { return vas[rng.Intn(len(vas))] &^ (PageSize - 1) }
	pa := func() uint64 { return uint64(rng.Intn(1<<20)) << PageShift }
	perm := func() Perm { return perms[rng.Intn(len(perms))] }
	kinds := []AccessKind{AccessRead, AccessWrite, AccessFetch}

	for op := 0; op < 6000; op++ {
		var what string
		switch r := rng.Intn(100); {
		case r < 35:
			what = "Map"
			if err := as.Map(page(), pa(), uint64(1+rng.Intn(3))*PageSize, perm()); err != nil {
				t.Fatal(err)
			}
		case r < 40:
			what = "MapHuge"
			base := uint64(hugeVA)
			if rng.Intn(2) == 0 {
				base = linearVA + HugePageSize
			}
			hpa := uint64(rng.Intn(64)) * HugePageSize
			if err := as.MapHuge(base, hpa, HugePageSize, perm()); err != nil {
				t.Fatal(err)
			}
		case r < 60:
			what = "Unmap"
			as.Unmap(page(), uint64(1+rng.Intn(3))*PageSize)
		case r < 80:
			what = "SetPerm"
			as.SetPerm(page(), perm())
		case r < 98:
			what = "AddLinearRange"
			va := linearVA + uint64(rng.Intn(16))*64*PageSize
			// Overlapping ranges are rejected, which leaves the space as
			// it was; the checks below then cover that case too.
			_ = as.AddLinearRange(va, pa(), uint64(1+rng.Intn(64))*PageSize, perm(), rng.Intn(2) == 0)
		default:
			what = "Reset"
			as.Reset()
		}
		for probe := 0; probe < 16; probe++ {
			va := vas[rng.Intn(len(vas))] + uint64(rng.Intn(PageSize))
			for _, kind := range kinds {
				for _, user := range []bool{false, true} {
					gpa, gf, gok := as.TranslateV(va, kind, user)
					wpa, wf, wok := refTranslate(as, va, kind, user)
					if gpa != wpa || gf != wf || gok != wok {
						t.Fatalf("op %d (after %s): TranslateV(%#x, %v, user=%v) = %#x, %+v, %v; page map says %#x, %+v, %v",
							op, what, va, kind, user, gpa, gf, gok, wpa, wf, wok)
					}
				}
			}
		}
	}
}

// TestMemoSpreadsPrimeSets: the 32 prime-set pages, which share 8
// low-bit slots, land in 32 different memo slots.
func TestMemoSpreadsPrimeSets(t *testing.T) {
	slots := make(map[uint64]uint64)
	for _, va := range primeSetVAs() {
		s := memoSlot(va >> PageShift)
		if prev, ok := slots[s]; ok {
			t.Fatalf("prime pages %#x and %#x share memo slot %d", prev, va, s)
		}
		slots[s] = va
	}
}
