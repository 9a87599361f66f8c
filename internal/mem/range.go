package mem

import (
	"fmt"
	"sort"
)

// linearRange is a direct VA→PA window (VA = Base + (PA - PABase)),
// used for huge linear kernel regions like physmap where materializing a
// PTE per 4 KiB page would be wasteful.
type linearRange struct {
	va, pa, length uint64
	perm           Perm
	huge           bool
}

// AddLinearRange installs a linear mapping of length bytes from va to pa.
// Lookups fall back to linear ranges when no explicit PTE covers the page,
// so explicit mappings can shadow parts of a range. Ranges must be page
// aligned and must not overlap each other.
func (as *AddrSpace) AddLinearRange(va, pa, length uint64, perm Perm, huge bool) error {
	if va%PageSize != 0 || pa%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("mem: unaligned AddLinearRange(%#x, %#x, %#x)", va, pa, length)
	}
	for _, r := range as.ranges {
		if va < r.va+r.length && r.va < va+length {
			return fmt.Errorf("mem: linear range %#x..%#x overlaps existing %#x..%#x",
				va, va+length, r.va, r.va+r.length)
		}
	}
	as.ranges = append(as.ranges, linearRange{va: va, pa: pa, length: length, perm: perm, huge: huge})
	sort.Slice(as.ranges, func(i, j int) bool { return as.ranges[i].va < as.ranges[j].va })
	as.epoch++
	as.memoGen++
	return nil
}

// rangeLookup finds a PTE synthesized from the linear ranges.
func (as *AddrSpace) rangeLookup(va uint64) (PTE, bool) {
	// Binary search over sorted, non-overlapping ranges.
	i := sort.Search(len(as.ranges), func(i int) bool {
		r := as.ranges[i]
		return va < r.va+r.length
	})
	if i >= len(as.ranges) {
		return PTE{}, false
	}
	r := as.ranges[i]
	if va < r.va {
		return PTE{}, false
	}
	pageVA := va &^ (PageSize - 1)
	return PTE{PA: r.pa + (pageVA - r.va), Perm: r.perm, Huge: r.huge}, true
}
