// Package mem models physical memory and per-process virtual address
// spaces: sparse physical frames, page table entries with the x86
// permission bits the Phantom exploits depend on (present, user, writable,
// no-execute), 4 KiB and 2 MiB pages, and a small TLB model for
// translation timing.
//
// The exploits probe exactly these properties: P1 detects *mapped
// executable* kernel memory (instruction fetch only fills the I-cache when
// the target is present and executable), P2 detects *mapped non-executable*
// memory (physmap is mapped NX), and breaking KASLR means locating where in
// the huge kernel virtual regions the present pages actually are.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Page geometry.
const (
	PageShift     = 12
	PageSize      = 1 << PageShift // 4 KiB
	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift // 2 MiB
)

// Perm is a page permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead  Perm = 1 << iota // page is readable (present implies readable here)
	PermWrite                  // page is writable
	PermExec                   // page is executable (NX clear)
	PermUser                   // page is accessible from user mode (CPL3)
)

func (p Perm) String() string {
	b := []byte("r---")
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	if p&PermUser != 0 {
		b[3] = 'u'
	}
	if p&PermRead == 0 {
		b[0] = '-'
	}
	return string(b)
}

// AccessKind distinguishes the intent of a memory access for fault checks.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessFetch
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessFetch:
		return "fetch"
	}
	return "access?"
}

// Fault describes a page fault. It implements error.
type Fault struct {
	VA   uint64
	Kind AccessKind
	// NotPresent is true when no translation exists; false means a
	// permission violation (NX fetch, user access to supervisor page,
	// write to read-only page).
	NotPresent bool
}

func (f *Fault) Error() string {
	why := "permission"
	if f.NotPresent {
		why = "not-present"
	}
	return fmt.Sprintf("page fault: %s of %#x (%s)", f.Kind, f.VA, why)
}

// PTE is a page table entry: a physical frame base plus permissions.
type PTE struct {
	PA   uint64 // physical base of the page (aligned to the page size)
	Perm Perm
	Huge bool // 2 MiB mapping
}

// PhysMem is sparse physical memory, allocated in 4 KiB frames on first
// write; a read of a frame nothing wrote allocates nothing. The zero
// value is not usable; call NewPhysMem.
type PhysMem struct {
	frames map[uint64][]byte // keyed by PA >> PageShift

	// codeGens tracks, per frame holding predecoded instruction bytes
	// (see pipeline's predecode cache), a generation counter bumped by
	// any write that changes bytes in that frame. Frames outside the
	// map — data, stacks — write at full speed.
	codeGens map[uint64]uint64
	// codeWrites counts code-generation bumps across all frames, Reset
	// included, and never rewinds: a memo of a line validated against
	// its frame's generation stays valid while this count stands still.
	codeWrites uint64

	// arena backs lazily-touched frames in page-sized runs carved from
	// chunk allocations, so experiments that touch thousands of fresh
	// frames (KASLR slot sweeps map new training pages per probe) pay one
	// allocation per chunk instead of one per frame. The first arenaUsed
	// bytes of the current chunk are handed out; Reset rewinds it.
	arena     []byte
	arenaUsed int

	// int3Lo and int3Hi bound the one range whose bytes start out as
	// int3 rather than zero (see FillInt3).
	int3Lo, int3Hi uint64

	size uint64 // advertised physical memory size (for physmap experiments)
}

// NewPhysMem returns physical memory advertising the given size in bytes
// (the size bounds the physical-address search space in the Table 5
// experiment; frames are still allocated lazily).
func NewPhysMem(size uint64) *PhysMem {
	pm := &PhysMem{
		frames:   make(map[uint64][]byte),
		codeGens: make(map[uint64]uint64),
		size:     size,
	}
	pm.Reset()
	return pm
}

// Reset drops every frame, every code generation and the int3 range,
// keeping the size and the allocations: the state NewPhysMem returns.
// The current arena chunk is zeroed and rewound, so the frames touched
// next reuse it.
func (pm *PhysMem) Reset() {
	clear(pm.frames)
	clear(pm.codeGens)
	pm.codeWrites++
	clear(pm.arena[:pm.arenaUsed])
	pm.arenaUsed = 0
	pm.int3Lo, pm.int3Hi = 0, 0
}

// Size returns the advertised physical memory size in bytes.
func (pm *PhysMem) Size() uint64 { return pm.size }

// FillInt3 makes the n bytes at pa read as int3 (0xcc) until written,
// replacing any earlier such range. It holds for frames that nothing has
// touched yet, so the kernel declares its text range at boot, before it
// writes the code there: the text then reads as the code over an int3
// fill, exactly as if the padded image had been copied in, without
// materializing the padding.
func (pm *PhysMem) FillInt3(pa, n uint64) {
	pm.int3Lo, pm.int3Hi = pa, pa+n
}

// int3Page is the source a fresh frame's int3 bytes are copied from, and
// zeroPage what a read of a frame nothing wrote sees outside the int3
// range. Both are shared by every PhysMem and never written.
var (
	int3Page = bytes.Repeat([]byte{0xcc}, PageSize)
	zeroPage = make([]byte, PageSize)
)

// frameArenaPages is how many frames one arena chunk backs.
const frameArenaPages = 16

// readFrame returns the bytes of the frame containing pa for reading.
// A frame nothing wrote stays unmaterialized: it reads as int3Page when
// the int3 range covers all of it and as zeroPage when the range misses
// it. Only a frame the range covers in part materializes, as on a write.
func (pm *PhysMem) readFrame(pa uint64) []byte {
	key := pa >> PageShift
	if f := pm.frames[key]; f != nil {
		return f
	}
	base := key << PageShift
	switch lo, hi := max(pm.int3Lo, base), min(pm.int3Hi, base+PageSize); {
	case lo >= hi:
		return zeroPage
	case hi-lo == PageSize:
		return int3Page
	}
	return pm.frame(pa)
}

// frame returns the frame containing pa for writing, materializing it
// from the arena on first touch.
func (pm *PhysMem) frame(pa uint64) []byte {
	key := pa >> PageShift
	f := pm.frames[key]
	if f == nil {
		if pm.arenaUsed == len(pm.arena) {
			pm.arena = make([]byte, PageSize*frameArenaPages)
			pm.arenaUsed = 0
		}
		next := pm.arenaUsed + PageSize
		f = pm.arena[pm.arenaUsed:next:next]
		pm.arenaUsed = next
		pm.frames[key] = f
		base := key << PageShift
		if lo, hi := max(pm.int3Lo, base), min(pm.int3Hi, base+PageSize); lo < hi {
			copy(f[lo-base:hi-base], int3Page)
		}
	}
	return f
}

// Read8 reads one byte of physical memory.
func (pm *PhysMem) Read8(pa uint64) byte {
	return pm.readFrame(pa)[pa&(PageSize-1)]
}

// Write8 writes one byte of physical memory.
func (pm *PhysMem) Write8(pa uint64, v byte) {
	b := pm.frame(pa)
	off := pa & (PageSize - 1)
	if b[off] != v {
		b[off] = v
		pm.noteCodeChange(pa)
	}
}

// Read64 reads a little-endian 64-bit word (may straddle frames).
func (pm *PhysMem) Read64(pa uint64) uint64 {
	if off := pa & (PageSize - 1); off+8 <= PageSize {
		return binary.LittleEndian.Uint64(pm.readFrame(pa)[off:])
	}
	var v uint64
	for i := uint(0); i < 8; i++ {
		v |= uint64(pm.Read8(pa+uint64(i))) << (8 * i)
	}
	return v
}

// Write64 writes a little-endian 64-bit word (may straddle frames).
func (pm *PhysMem) Write64(pa uint64, v uint64) {
	if off := pa & (PageSize - 1); off+8 <= PageSize {
		b := pm.frame(pa)[off : off+8]
		if binary.LittleEndian.Uint64(b) != v {
			binary.LittleEndian.PutUint64(b, v)
			pm.noteCodeChange(pa)
		}
		return
	}
	for i := uint(0); i < 8; i++ {
		pm.Write8(pa+uint64(i), byte(v>>(8*i)))
	}
}

// WriteBytes copies b into physical memory starting at pa, frame by frame.
func (pm *PhysMem) WriteBytes(pa uint64, b []byte) {
	for len(b) > 0 {
		frame := pm.frame(pa)
		off := pa & (PageSize - 1)
		dst := frame[off:]
		n := len(b)
		if n > len(dst) {
			n = len(dst)
		}
		// A copy only *changes* the frame if the bytes differ; rewriting an
		// identical blob (retraining loops do this constantly) must not
		// invalidate predecoded lines. The compare runs only for frames the
		// predecode cache registered.
		if pm.isCodeFrame(pa) && !bytes.Equal(dst[:n], b[:n]) {
			pm.codeGens[pa>>PageShift]++
			pm.codeWrites++
		}
		copy(dst, b[:n])
		b = b[n:]
		pa += uint64(n)
	}
}

// Window returns a slice aliasing the physical frame that contains pa,
// covering [pa, pa+n), or the shared page a frame nothing wrote reads
// as. It reports false when the window would straddle a frame boundary.
// The slice must be treated as read-only: writing through it would
// bypass the code-generation tracking that Write8/Write64/WriteBytes
// maintain for predecode invalidation, or change a shared page.
func (pm *PhysMem) Window(pa uint64, n int) ([]byte, bool) {
	off := pa & (PageSize - 1)
	if off+uint64(n) > PageSize {
		return nil, false
	}
	return pm.readFrame(pa)[off : off+uint64(n)], true
}

// MarkCodeFrame records that the frame containing pa holds predecoded
// instruction bytes, so subsequent byte-changing writes to it bump its
// generation. It returns the frame's current generation, which callers
// snapshot alongside the decode they cache.
func (pm *PhysMem) MarkCodeFrame(pa uint64) uint64 {
	key := pa >> PageShift
	g, ok := pm.codeGens[key]
	if !ok {
		g = 1
		pm.codeGens[key] = g
	}
	return g
}

// CodeGen returns the generation of the frame containing pa (0 if the
// frame was never marked). A cached decode is stale iff the generation
// has moved past the value snapshotted at insert time.
func (pm *PhysMem) CodeGen(pa uint64) uint64 { return pm.codeGens[pa>>PageShift] }

// CodeWrites returns how many times any frame's code generation has
// moved (Reset counts as a move of all of them). While it stands still,
// every CodeGen value read earlier still holds.
func (pm *PhysMem) CodeWrites() uint64 { return pm.codeWrites }

func (pm *PhysMem) isCodeFrame(pa uint64) bool {
	if len(pm.codeGens) == 0 {
		return false
	}
	_, ok := pm.codeGens[pa>>PageShift]
	return ok
}

// noteCodeChange advances the generation of pa's frame when it holds
// predecoded code (self-modifying code, harness rewrites). The common
// case — no code frames registered yet, or a write to a data frame —
// costs one length check or one map probe.
func (pm *PhysMem) noteCodeChange(pa uint64) {
	if len(pm.codeGens) == 0 {
		return
	}
	key := pa >> PageShift
	if _, ok := pm.codeGens[key]; ok {
		pm.codeGens[key]++
		pm.codeWrites++
	}
}

// AddrSpace is a virtual address space: a page-granular map of VA to PTE.
// Kernel and user mappings coexist in one AddrSpace, distinguished by
// PermUser, as on x86-64 Linux without KPTI; with KPTI the kernel swaps in
// a second AddrSpace lacking most kernel mappings while user code runs.
type AddrSpace struct {
	pages  map[uint64]PTE // keyed by VA >> PageShift
	phys   *PhysMem
	ranges []linearRange // fallback linear windows (e.g. physmap)

	// epoch counts mapping mutations (Map, MapHuge, Unmap, SetPerm,
	// AddLinearRange). Translation memos snapshot it and self-invalidate
	// when it moves, so remapping a page can never serve a stale PA.
	epoch uint64
}

// NewAddrSpace returns an empty address space backed by pm.
func NewAddrSpace(pm *PhysMem) *AddrSpace {
	as := &AddrSpace{pages: make(map[uint64]PTE), phys: pm}
	as.Reset()
	return as
}

// Reset drops every mapping and linear range, keeping the allocations.
// It is a mapping mutation like any other: the epoch moves forward and
// never rewinds, so a translation memoized before the reset can never
// match after it.
func (as *AddrSpace) Reset() {
	clear(as.pages)
	as.ranges = as.ranges[:0]
	as.epoch++
}

// Epoch returns the mapping-mutation count. Any change to the VA→PA
// relation (or its permissions) moves the epoch forward.
func (as *AddrSpace) Epoch() uint64 { return as.epoch }

// Map installs a mapping of length bytes from va to pa with the given
// permissions. va, pa and length must be page aligned.
func (as *AddrSpace) Map(va, pa, length uint64, perm Perm) error {
	if va%PageSize != 0 || pa%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("mem: unaligned Map(%#x, %#x, %#x)", va, pa, length)
	}
	for off := uint64(0); off < length; off += PageSize {
		as.pages[(va+off)>>PageShift] = PTE{PA: pa + off, Perm: perm}
	}
	as.epoch++
	return nil
}

// MapHuge installs 2 MiB mappings; va, pa, length must be 2 MiB aligned.
// Huge mappings guarantee physically-contiguous 2 MiB regions, which the
// physmap Prime+Probe attack relies on (paper Section 7.2).
func (as *AddrSpace) MapHuge(va, pa, length uint64, perm Perm) error {
	if va%HugePageSize != 0 || pa%HugePageSize != 0 || length%HugePageSize != 0 {
		return fmt.Errorf("mem: unaligned MapHuge(%#x, %#x, %#x)", va, pa, length)
	}
	for off := uint64(0); off < length; off += PageSize {
		as.pages[(va+off)>>PageShift] = PTE{PA: pa + off, Perm: perm, Huge: true}
	}
	as.epoch++
	return nil
}

// Unmap removes mappings covering [va, va+length).
func (as *AddrSpace) Unmap(va, length uint64) {
	for off := uint64(0); off < length; off += PageSize {
		delete(as.pages, (va+off)>>PageShift)
	}
	as.epoch++
}

// SetPerm rewrites the permissions of an existing page, as the paper does
// when it "changes the PTE attributes of address K to make it accessible to
// user space" (Section 6.2). It returns false when va is unmapped.
func (as *AddrSpace) SetPerm(va uint64, perm Perm) bool {
	key := va >> PageShift
	pte, ok := as.pages[key]
	if !ok {
		return false
	}
	pte.Perm = perm
	as.pages[key] = pte
	as.epoch++
	return true
}

// Lookup returns the PTE covering va, consulting explicit pages first and
// linear ranges second.
func (as *AddrSpace) Lookup(va uint64) (PTE, bool) {
	if pte, ok := as.pages[va>>PageShift]; ok {
		return pte, true
	}
	return as.rangeLookup(va)
}

// Translate checks permissions for an access of the given kind from the
// given privilege (user=true means CPL3) and returns the physical address.
func (as *AddrSpace) Translate(va uint64, kind AccessKind, user bool) (uint64, *Fault) {
	pa, fv, ok := as.TranslateV(va, kind, user)
	if !ok {
		f := fv
		return 0, &f
	}
	return pa, nil
}

// TranslateV is Translate returning the fault by value (ok=false), for
// callers on paths where faults are routine — KASLR probing branches into
// unmapped kernel slots millions of times, and a heap-allocated Fault per
// probe dominated the experiment's allocation profile.
func (as *AddrSpace) TranslateV(va uint64, kind AccessKind, user bool) (pa uint64, fault Fault, ok bool) {
	pte, found := as.pages[va>>PageShift]
	if !found {
		if pte, found = as.rangeLookup(va); !found {
			return 0, Fault{VA: va, Kind: kind, NotPresent: true}, false
		}
	}
	if user && pte.Perm&PermUser == 0 {
		return 0, Fault{VA: va, Kind: kind}, false
	}
	switch kind {
	case AccessWrite:
		if pte.Perm&PermWrite == 0 {
			return 0, Fault{VA: va, Kind: kind}, false
		}
	case AccessFetch:
		if pte.Perm&PermExec == 0 {
			return 0, Fault{VA: va, Kind: kind}, false
		}
	}
	return pte.PA + va&(PageSize-1), Fault{}, true
}

// Read8 performs a privileged (kernel-level, permission-unchecked beyond
// presence) read, for harness use.
func (as *AddrSpace) Read8(va uint64) (byte, error) {
	pa, f := as.Translate(va, AccessRead, false)
	if f != nil {
		return 0, f
	}
	return as.phys.Read8(pa), nil
}

// Read64 performs a privileged 64-bit read for harness use.
func (as *AddrSpace) Read64(va uint64) (uint64, error) {
	if va&(PageSize-1) <= PageSize-8 {
		pa, f := as.Translate(va, AccessRead, false)
		if f != nil {
			return 0, f
		}
		return as.phys.Read64(pa), nil
	}
	var v uint64
	for i := uint(0); i < 8; i++ {
		b, err := as.Read8(va + uint64(i))
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// Write64 performs a privileged 64-bit write for harness use. Virtual
// contiguity only implies physical contiguity within one page, so the
// single-translation fast path applies only when the word fits a page.
func (as *AddrSpace) Write64(va uint64, v uint64) error {
	if va&(PageSize-1) <= PageSize-8 {
		pa, f := as.Translate(va, AccessRead, false)
		if f != nil {
			return f
		}
		as.phys.Write64(pa, v)
		return nil
	}
	for i := uint(0); i < 8; i++ {
		pa, f := as.Translate(va+uint64(i), AccessRead, false)
		if f != nil {
			return f
		}
		as.phys.Write8(pa, byte(v>>(8*i)))
	}
	return nil
}

// WriteBytes installs b at va via existing mappings (harness use). It
// translates once per page and copies page-sized runs: a page that
// translates is physically contiguous, so per-byte translation — the
// dominant cost when harnesses rewrite whole training pages in a loop —
// is pure overhead. Bytes in pages preceding an unmapped page are still
// written before the error returns, matching the byte-wise behavior.
func (as *AddrSpace) WriteBytes(va uint64, b []byte) error {
	for len(b) > 0 {
		pa, f := as.Translate(va, AccessRead, false)
		if f != nil {
			return f
		}
		n := int(PageSize - va&(PageSize-1))
		if n > len(b) {
			n = len(b)
		}
		as.phys.WriteBytes(pa, b[:n])
		b = b[n:]
		va += uint64(n)
	}
	return nil
}
