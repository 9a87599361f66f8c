package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPhysMemReadWrite(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	pm.Write8(0x1234, 0xab)
	if got := pm.Read8(0x1234); got != 0xab {
		t.Errorf("Read8 = %#x", got)
	}
	// Straddling a frame boundary.
	pm.Write64(PageSize-4, 0x1122334455667788)
	if got := pm.Read64(PageSize - 4); got != 0x1122334455667788 {
		t.Errorf("straddle Read64 = %#x", got)
	}
}

func TestPhysMemRoundTripProperty(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	f := func(pa uint64, v uint64) bool {
		pa %= 1 << 29
		pm.Write64(pa, v)
		return pm.Read64(pa) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMapTranslatePermissions(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	as := NewAddrSpace(pm)
	if err := as.Map(0x400000, 0x10000, PageSize, PermRead|PermExec|PermUser); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0xffffffff81000000, 0x20000, PageSize, PermRead|PermExec); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0xffff888000000000, 0x30000, PageSize, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}

	// User fetch of user-exec page: fine.
	if _, f := as.Translate(0x400123, AccessFetch, true); f != nil {
		t.Errorf("user fetch faulted: %v", f)
	}
	// User access to kernel page: permission fault, present.
	if _, f := as.Translate(0xffffffff81000000, AccessRead, true); f == nil || f.NotPresent {
		t.Errorf("user read of kernel page: %v", f)
	}
	// Kernel fetch of NX physmap page: NX fault.
	if _, f := as.Translate(0xffff888000000000, AccessFetch, false); f == nil || f.NotPresent {
		t.Errorf("fetch of NX page: %v", f)
	}
	// Kernel read of physmap: fine.
	if _, f := as.Translate(0xffff888000000000, AccessRead, false); f != nil {
		t.Errorf("kernel read faulted: %v", f)
	}
	// Write to read-only page.
	if _, f := as.Translate(0x400000, AccessWrite, true); f == nil {
		t.Error("write to r-x page did not fault")
	}
	// Unmapped.
	if _, f := as.Translate(0xdead000, AccessRead, false); f == nil || !f.NotPresent {
		t.Errorf("unmapped: %v", f)
	}
}

func TestTranslateOffsets(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	as := NewAddrSpace(pm)
	if err := as.Map(0x400000, 0x10000, 4*PageSize, PermRead|PermUser); err != nil {
		t.Fatal(err)
	}
	pa, f := as.Translate(0x400000+2*PageSize+0x123, AccessRead, true)
	if f != nil || pa != 0x10000+2*PageSize+0x123 {
		t.Fatalf("pa = %#x f=%v", pa, f)
	}
}

func TestUnalignedMapFails(t *testing.T) {
	as := NewAddrSpace(NewPhysMem(1 << 20))
	if err := as.Map(0x400001, 0, PageSize, PermRead); err == nil {
		t.Error("unaligned va accepted")
	}
	if err := as.MapHuge(0x500000, 0, HugePageSize, PermRead); err == nil {
		t.Error("non-huge-aligned va accepted")
	}
}

func TestSetPerm(t *testing.T) {
	as := NewAddrSpace(NewPhysMem(1 << 20))
	as.Map(0xffffffff81000000, 0, PageSize, PermRead|PermExec)
	// Paper Section 6.2: make a kernel page user-accessible by editing
	// its PTE.
	if !as.SetPerm(0xffffffff81000000, PermRead|PermExec|PermUser) {
		t.Fatal("SetPerm failed")
	}
	if _, f := as.Translate(0xffffffff81000000, AccessFetch, true); f != nil {
		t.Errorf("user fetch after SetPerm: %v", f)
	}
	if as.SetPerm(0x123000, PermRead) {
		t.Error("SetPerm on unmapped page succeeded")
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddrSpace(NewPhysMem(1 << 20))
	as.Map(0x400000, 0, 2*PageSize, PermRead|PermUser)
	as.Unmap(0x400000, PageSize)
	if _, f := as.Translate(0x400000, AccessRead, true); f == nil {
		t.Error("unmapped page still translates")
	}
	if _, f := as.Translate(0x401000, AccessRead, true); f != nil {
		t.Error("unmap removed too much")
	}
}

func TestAddrSpaceRW(t *testing.T) {
	as := NewAddrSpace(NewPhysMem(1 << 20))
	as.Map(0x400000, 0x4000, PageSize, PermRead|PermWrite|PermUser)
	if err := as.Write64(0x400010, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	v, err := as.Read64(0x400010)
	if err != nil || v != 0xfeedface {
		t.Fatalf("Read64 = %#x err=%v", v, err)
	}
	if err := as.WriteBytes(0x400100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, err := as.Read8(0x400102)
	if err != nil || b != 3 {
		t.Fatalf("Read8 = %d err=%v", b, err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(16, 4)
	if tlb.Lookup(0x400000) {
		t.Error("cold TLB hit")
	}
	if !tlb.Lookup(0x400000) {
		t.Error("warm TLB miss")
	}
	if !tlb.Lookup(0x400fff) {
		t.Error("same-page TLB miss")
	}
	tlb.Flush()
	if tlb.Lookup(0x400000) {
		t.Error("hit after Flush")
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(1, 2) // single set, 2 ways
	tlb.Lookup(0x1000)
	tlb.Lookup(0x2000)
	tlb.Lookup(0x3000) // evicts 0x1000 (round robin)
	if tlb.Lookup(0x1000) {
		t.Error("evicted entry still hits")
	}
}

func TestFrameAllocatorSeq(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	fa := NewFrameAllocator(pm, 0x100000, rand.New(rand.NewSource(1)))
	a := fa.AllocSeq(3 * PageSize)
	b := fa.AllocSeq(PageSize)
	if a != 0x100000 || b != a+3*PageSize {
		t.Fatalf("seq alloc: a=%#x b=%#x", a, b)
	}
}

func TestFrameAllocatorRandomHuge(t *testing.T) {
	pm := NewPhysMem(1 << 30) // 512 huge slots
	fa := NewFrameAllocator(pm, 0, rand.New(rand.NewSource(2)))
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		pa, err := fa.AllocRandomHuge()
		if err != nil {
			t.Fatal(err)
		}
		if pa%HugePageSize != 0 {
			t.Fatalf("unaligned huge frame %#x", pa)
		}
		if seen[pa] {
			t.Fatalf("duplicate huge frame %#x", pa)
		}
		seen[pa] = true
	}
}

func TestFrameAllocatorReserveExcludes(t *testing.T) {
	pm := NewPhysMem(4 * HugePageSize)
	fa := NewFrameAllocator(pm, 0, rand.New(rand.NewSource(3)))
	// Reserve all but one slot; random allocation must return the free one.
	fa.Reserve(0, HugePageSize)
	fa.Reserve(2*HugePageSize, 2*HugePageSize)
	pa, err := fa.AllocRandomHuge()
	if err != nil {
		t.Fatal(err)
	}
	if pa != HugePageSize {
		t.Fatalf("allocated reserved frame %#x", pa)
	}
}

// refAllocator is the frame allocator with one map entry per allocated
// 4 KiB frame, as it was before the 2 MiB bitmaps. Its answers are the
// reference the bitmaps must reproduce: Table 5 and the hugepage
// fragmentation at boot depend on every rng draw and address.
type refAllocator struct {
	size, next uint64
	rng        *rand.Rand
	used       map[uint64]bool
}

func (fa *refAllocator) AllocSeq(length uint64) uint64 {
	length = (length + PageSize - 1) &^ (PageSize - 1)
	base := fa.next
	fa.markUsed(base, length)
	fa.next = base + length
	return base
}

func (fa *refAllocator) AllocRandomHuge() (uint64, error) {
	slots := fa.size / HugePageSize
	if slots == 0 {
		return 0, fmt.Errorf("mem: physical memory smaller than a huge page")
	}
	for attempt := 0; attempt < 4096; attempt++ {
		base := uint64(fa.rng.Int63n(int64(slots))) * HugePageSize
		if fa.rangeFree(base, HugePageSize) {
			fa.markUsed(base, HugePageSize)
			return base, nil
		}
	}
	return 0, fmt.Errorf("mem: no free huge frame found")
}

func (fa *refAllocator) rangeFree(base, length uint64) bool {
	for off := uint64(0); off < length; off += PageSize {
		if fa.used[(base+off)>>PageShift] {
			return false
		}
	}
	return true
}

func (fa *refAllocator) markUsed(base, length uint64) {
	for off := uint64(0); off < length; off += PageSize {
		fa.used[(base+off)>>PageShift] = true
	}
}

func (fa *refAllocator) Reserve(base, length uint64) { fa.markUsed(base, length) }

// TestFrameAllocatorMatchesReference drives the bitmap allocator and the
// per-frame reference with the same seeded sequences of AllocSeq,
// Reserve (at any byte offset, over part of a region or several) and
// AllocRandomHuge, in memories small enough to fill, and requires the
// same addresses, the same errors and the same allocated frames.
func TestFrameAllocatorMatchesReference(t *testing.T) {
	var partial, fails int
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		size := uint64(r.Intn(64)) * HugePageSize
		if r.Intn(4) == 0 {
			size += uint64(r.Intn(HugePageSize)) // a ragged top
		}
		start := uint64(r.Intn(int(size/PageSize)+1)) * PageSize
		fa := NewFrameAllocator(NewPhysMem(size), start, rand.New(rand.NewSource(seed)))
		ref := &refAllocator{size: size, next: start, rng: rand.New(rand.NewSource(seed)), used: make(map[uint64]bool)}
	ops:
		for op := 0; op < 40; op++ {
			switch r.Intn(3) {
			case 0:
				n := uint64(r.Intn(2 * HugePageSize))
				if got, want := fa.AllocSeq(n), ref.AllocSeq(n); got != want {
					t.Fatalf("seed %d op %d: AllocSeq(%#x) = %#x, reference %#x", seed, op, n, got, want)
				}
			case 1:
				base := uint64(r.Int63n(int64(size) + HugePageSize))
				n := uint64(r.Intn(3 * HugePageSize))
				if base%HugePageSize != 0 || n%HugePageSize != 0 {
					partial++
				}
				fa.Reserve(base, n)
				ref.Reserve(base, n)
			case 2:
				got, gerr := fa.AllocRandomHuge()
				want, werr := ref.AllocRandomHuge()
				if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("seed %d op %d: AllocRandomHuge = %#x, %v; reference %#x, %v", seed, op, got, gerr, want, werr)
				}
				if gerr != nil {
					fails++
					break ops // memory is full: what follows fails alike
				}
			}
		}
		marked := 0
		for region, bits := range fa.used {
			for i := uint64(0); i < framesPerRegion; i++ {
				if bits[i/64]>>(i%64)&1 == 0 {
					continue
				}
				marked++
				if f := region*framesPerRegion + i; !ref.used[f] {
					t.Fatalf("seed %d: frame %#x marked, reference free", seed, f)
				}
			}
		}
		if marked != len(ref.used) {
			t.Fatalf("seed %d: %d frames marked, reference %d", seed, marked, len(ref.used))
		}
	}
	if partial == 0 || fails == 0 {
		t.Fatalf("sequences never reserved part of a region (%d) or filled memory (%d)", partial, fails)
	}
}

// TestPhysMemFillInt3 pins the int3 range: frames first touched inside it
// read 0xcc up to its last byte and zero after it, writes land over the
// fill, and frames outside it read zero.
func TestPhysMemFillInt3(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	const lo, hi = 3*PageSize + 100, 5*PageSize + 7
	pm.FillInt3(lo, hi-lo)
	pm.Write8(4*PageSize+1, 0x90)
	for pa := uint64(2 * PageSize); pa < 7*PageSize; pa++ {
		want := byte(0)
		switch {
		case pa == 4*PageSize+1:
			want = 0x90
		case pa >= lo && pa < hi:
			want = 0xcc
		}
		if got := pm.Read8(pa); got != want {
			t.Fatalf("Read8(%#x) = %#x, want %#x", pa, got, want)
		}
	}
}

// TestPhysMemReadDoesNotMaterialize: reads of frames nothing wrote
// allocate nothing and still see zero, or int3 inside the range; a frame
// the range covers in part materializes on its first read; and writes
// after those reads land in frames of their own, leaving the shared
// pages the reads returned as they were.
func TestPhysMemReadDoesNotMaterialize(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	const lo, hi = 3 * PageSize, 5*PageSize + 7 // frames 3 and 4 whole, 5 in part
	pm.FillInt3(lo, hi-lo)
	read := func() {
		for _, pa := range []uint64{0, PageSize + 9, 3*PageSize + 1, 4*PageSize + 8} {
			pm.Read8(pa)
			pm.Read64(pa)
			pm.Window(pa, 16)
		}
	}
	if n := testing.AllocsPerRun(10, read); n != 0 {
		t.Fatalf("reading untouched frames allocates %v times", n)
	}
	if len(pm.frames) != 0 {
		t.Fatalf("reads materialized %d frames", len(pm.frames))
	}
	for pa := uint64(0); pa < 7*PageSize; pa += 7 {
		want := byte(0)
		if pa >= lo && pa < hi {
			want = 0xcc
		}
		if got := pm.Read8(pa); got != want {
			t.Fatalf("Read8(%#x) = %#x, want %#x", pa, got, want)
		}
		if w, ok := pm.Window(pa, 1); !ok || w[0] != want {
			t.Fatalf("Window(%#x) = %#x, want %#x", pa, w, want)
		}
	}
	if len(pm.frames) != 1 || pm.frames[5] == nil {
		t.Fatalf("materialized frames %v, want only frame 5 (the int3 range's partial one)", pm.frames)
	}
	if got, want := pm.Read64(5*PageSize), uint64(0x00cccccccccccccc); got != want {
		t.Fatalf("Read64 of the partial frame = %#x, want %#x", got, want)
	}

	pm.Write8(PageSize+9, 0x90)
	pm.Write64(3*PageSize+8, 0x1122334455667788)
	pm.WriteBytes(4*PageSize+8, []byte{1, 2, 3})
	if pm.Read8(PageSize+9) != 0x90 || pm.Read64(3*PageSize+8) != 0x1122334455667788 || pm.Read8(4*PageSize+10) != 3 {
		t.Fatal("writes after reads did not land")
	}
	if pm.Read8(3*PageSize) != 0xcc || pm.Read8(PageSize) != 0 {
		t.Fatal("a written frame lost the bytes around the write")
	}
	for _, b := range zeroPage {
		if b != 0 {
			t.Fatal("a write changed the shared zero page")
		}
	}
	for _, b := range int3Page {
		if b != 0xcc {
			t.Fatal("a write changed the shared int3 page")
		}
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{VA: 0x123, Kind: AccessFetch, NotPresent: true}
	if f.Error() == "" {
		t.Error("empty error string")
	}
	if PermRead.String() == "" || AccessWrite.String() == "" {
		t.Error("stringers broken")
	}
}

func TestLinearRangeTranslateAndShadow(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	as := NewAddrSpace(pm)
	base := uint64(0xffff888000000000)
	if err := as.AddLinearRange(base, 0, 1<<22, PermRead|PermWrite, true); err != nil {
		t.Fatal(err)
	}
	// Translation through the range.
	pa, f := as.Translate(base+0x123456, AccessRead, false)
	if f != nil || pa != 0x123456 {
		t.Fatalf("range translate: %#x, %v", pa, f)
	}
	// An explicit mapping shadows part of the range.
	if err := as.Map(base+0x1000, 0x400000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	pa, f = as.Translate(base+0x1040, AccessRead, false)
	if f != nil || pa != 0x400040 {
		t.Fatalf("shadowed translate: %#x, %v", pa, f)
	}
	// Beyond the range: fault.
	if _, f := as.Translate(base+(1<<22), AccessRead, false); f == nil {
		t.Fatal("translate past range end")
	}
	// Before the range: fault.
	if _, f := as.Translate(base-PageSize, AccessRead, false); f == nil {
		t.Fatal("translate before range start")
	}
	// Lookup consults ranges too.
	if pte, ok := as.Lookup(base + 0x2000); !ok || !pte.Huge {
		t.Fatalf("Lookup through range: %+v ok=%v", pte, ok)
	}
}

func TestLinearRangeOverlapRejected(t *testing.T) {
	as := NewAddrSpace(NewPhysMem(1 << 20))
	if err := as.AddLinearRange(0x1000000, 0, 1<<20, PermRead, false); err != nil {
		t.Fatal(err)
	}
	if err := as.AddLinearRange(0x1080000, 0, 1<<20, PermRead, false); err == nil {
		t.Fatal("overlapping range accepted")
	}
	if err := as.AddLinearRange(0x1000001, 0, PageSize, PermRead, false); err == nil {
		t.Fatal("unaligned range accepted")
	}
}

// TestPhysMemReset: Reset drops every frame, code generation and the
// int3 range, keeping the size, and the frames touched next come out of
// the rewound arena chunk without allocating.
func TestPhysMemReset(t *testing.T) {
	pm := NewPhysMem(1 << 30)
	pm.FillInt3(PageSize, 2*PageSize)
	pm.MarkCodeFrame(PageSize)
	pm.Write8(PageSize, 0x90)
	for i := uint64(0); i < 2*frameArenaPages; i++ {
		pm.Write64(i*PageSize+8, 0xfeed)
	}
	pm.Reset()
	if pm.Size() != 1<<30 {
		t.Fatalf("Size = %#x after Reset", pm.Size())
	}
	for i := uint64(0); i < 2*frameArenaPages; i++ {
		if b := pm.Read8(i*PageSize + 8); b != 0 {
			t.Fatalf("frame %d reads %#x after Reset", i, b)
		}
		if g := pm.CodeGen(i * PageSize); g != 0 {
			t.Fatalf("frame %d keeps code generation %d", i, g)
		}
	}
	if b := pm.Read8(PageSize + 1); b != 0 {
		t.Fatalf("the int3 range survived Reset: %#x", b)
	}
	if n := testing.AllocsPerRun(10, func() {
		pm.Reset()
		for i := uint64(0); i < frameArenaPages; i++ {
			pm.Write8(i*PageSize, 1)
		}
	}); n != 0 {
		t.Fatalf("touching frames after Reset allocates %v times", n)
	}
}

// TestPhysMemResetRecyclesEveryChunk: after frames spanning several
// arena chunks were filled and Reset ran, touching as many frames again
// takes them all from the kept chunks without allocating, and each
// recycled frame reads exactly as a fresh PhysMem's does: zero, and int3
// where an int3 range covers part of it.
func TestPhysMemResetRecyclesEveryChunk(t *testing.T) {
	const frames = 3*frameArenaPages + 5
	fill := bytes.Repeat([]byte{0xab}, PageSize)
	touch := func(pm *PhysMem) {
		pm.FillInt3(7*PageSize+100, 3*PageSize)
		for i := uint64(0); i < frames; i++ {
			pm.Write8(i*PageSize+i, byte(i))
		}
	}
	pm := NewPhysMem(1 << 30)
	for i := uint64(0); i < frames; i++ {
		pm.WriteBytes(i*PageSize, fill)
	}
	pm.Reset()
	touch(pm)
	fresh := NewPhysMem(1 << 30)
	touch(fresh)
	for i := uint64(0); i < frames; i++ {
		got, _ := pm.Window(i*PageSize, PageSize)
		want, _ := fresh.Window(i*PageSize, PageSize)
		if !bytes.Equal(got, want) {
			t.Fatalf("recycled frame %d differs from a fresh one", i)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		pm.Reset()
		touch(pm)
	}); n != 0 {
		t.Fatalf("touching %d frames after Reset allocates %v times", frames, n)
	}
}

// TestAddrSpaceReset: Reset drops pages and linear ranges, and the epoch
// moves forward rather than back to a value a memo may hold.
func TestAddrSpaceReset(t *testing.T) {
	as := NewAddrSpace(NewPhysMem(1 << 30))
	const physmap = 0xffff888000000000
	if err := as.Map(0x400000, 0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := as.AddLinearRange(physmap, 0, HugePageSize, PermRead, true); err != nil {
		t.Fatal(err)
	}
	before := as.Epoch()
	as.Reset()
	if _, ok := as.Lookup(0x400000); ok {
		t.Fatal("page mapping survived Reset")
	}
	if _, ok := as.Lookup(physmap); ok {
		t.Fatal("linear range survived Reset")
	}
	if as.Epoch() <= before {
		t.Fatalf("epoch went from %d to %d", before, as.Epoch())
	}
	if err := as.AddLinearRange(physmap, 0, HugePageSize, PermRead, true); err != nil {
		t.Fatalf("re-adding the range after Reset: %v", err)
	}
}

// TestTLBResetMatchesNew: Reset clears tags, replacement clocks and
// statistics, so the TLB equals a new one field for field.
func TestTLBResetMatchesNew(t *testing.T) {
	tlb := NewTLB(4, 2)
	for i := uint64(0); i < 40; i++ {
		tlb.Lookup((i * 3) << PageShift)
	}
	tlb.Reset()
	if want := NewTLB(4, 2); !reflect.DeepEqual(tlb, want) {
		t.Fatalf("reset TLB %+v, new TLB %+v", tlb, want)
	}
}
