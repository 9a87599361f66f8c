package pipeline

// The predecode cache: a per-physical-line cache of decoded isa.Inst
// values. The interpreter re-executes the same few code lines millions of
// times while training predictors, and before this cache every simulated
// instruction — architectural and wrong-path — paid 16 per-byte address
// translations, a fresh 16-byte buffer and a full isa.Decode. Steady-state
// execution now does one page-translation memo probe and one probe of a
// hashed line memo; the line map is probed only when that memo misses.
//
// Correctness rests on two invalidation mechanisms, neither of which can
// perturb modeled timings (no cycles are charged anywhere in this file):
//
//   - Byte staleness: frames holding predecoded bytes are registered with
//     mem.PhysMem (MarkCodeFrame). Every byte-changing physical write into
//     a registered frame — a simulated store retiring in exec.go, a harness
//     WriteBytes rewriting a training page, kernel data pokes — advances
//     that frame's code generation, and every cached line snapshots the
//     generation it was filled under. A stale snapshot empties the line on
//     next probe. Generations are per frame: rewriting one training page
//     does not evict decodes cached for unrelated code.
//   - Mapping staleness: entries are keyed by *physical* address and the
//     fetch path re-translates the instruction's page through a memo that
//     snapshots the AddrSpace mapping epoch, the address-space identity
//     and the privilege mode. mem.AddrSpace bumps its epoch on every
//     Map/MapHuge/Unmap/SetPerm/AddLinearRange, and KPTI switches swap
//     the AddrSpace pointer itself, so a VA that changes meaning can
//     never reach a stale line.
//
// The Machine.DisablePredecode escape hatch routes fetch+decode through
// the original byte-at-a-time path. Experiments reach it only through a
// WithReferenceFetch context; the root package's *PredecodeParity tests
// pin that both modes render byte-identical experiment output.

import (
	"phantom/internal/cache"
	"phantom/internal/isa"
	"phantom/internal/mem"
)

// decodeWindow is how many bytes the decoder may examine per instruction.
// Instructions whose window would cross a page boundary take the slow
// cross-page path and are never cached, so one generation snapshot (the
// window's single frame) covers every byte a cached decode depended on.
const decodeWindow = 16

// lineShift is log2(cache.LineSize).
const lineShift = 6

// predecodeLine caches the decodes that start inside one 64-byte physical
// line. gen is the frame's code generation the decodes were filled under.
type predecodeLine struct {
	gen     uint64
	decoded uint64 // bitmask over intra-line start offsets
	insts   [cache.LineSize]isa.Inst
	// next, in the first line of an arena chunk, is the chunk carved
	// after it (see predecodeCache.arena).
	next []predecodeLine
}

// predecodeCache maps physical line number (PA >> lineShift) to its
// decoded instructions. One cache serves both the architectural step path
// and the speculative wrong-path walker: wrong-path decode of the same
// bytes yields the same Inst, and the cache models the *simulator's* work,
// not a microarchitectural structure, so sharing is free and safe.
type predecodeCache struct {
	lines map[uint64]*predecodeLine
	// memo maps a line key's hash slot (lineSlot) to the line lookup or
	// insert last found for that key. An entry was current (its line's
	// gen equal to its frame's CodeGen) when the PhysMem code-write count
	// read writes, and stays current until that count moves, so a probe
	// of a memoized line skips both map lookups. The table sits behind a
	// pointer, so Machine.Reset does not copy it, and is never cleared:
	// PhysMem.Reset moves the code-write count, which makes every entry
	// stale at once.
	memo *[lineMemoSize]lineMemo
	// arena carves predecodeLine values from chunk allocations: KASLR
	// sweeps decode training code at a fresh physical line per probe
	// slot, and a per-line allocation showed up in experiment profiles.
	// The first arenaUsed lines of the current chunk are handed out.
	// Chunks chain from first through their first lines' next fields,
	// and reset rewinds to first, so a reset machine hands out the lines
	// of every chunk it made before it makes another.
	first, arena []predecodeLine
	arenaUsed    int
}

// lineMemoSize is how many lines the predecode memo holds (a power of
// two).
const lineMemoSize = 1 << lineMemoBits

const lineMemoBits = 8

// lineMemo is one predecode memo entry: line is the line of key key1-1
// (key1 0 marks an empty slot), current while PhysMem.CodeWrites reads
// writes.
type lineMemo struct {
	key1   uint64
	line   *predecodeLine
	writes uint64
}

// lineSlot hashes a line key to its memo slot with the top bits of a
// Fibonacci multiply, as mem's translation memo does.
func lineSlot(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> (64 - lineMemoBits)
}

// predecodeArenaLines is how many lines one arena chunk backs.
const predecodeArenaLines = 4

func newPredecodeCache() predecodeCache {
	return predecodeCache{lines: make(map[uint64]*predecodeLine), memo: new([lineMemoSize]lineMemo)}
}

// reset empties the cache, keeping its map, its memo and its chunks.
func (c *predecodeCache) reset() {
	clear(c.lines)
	c.arena, c.arenaUsed = c.first, 0
}

// newLine hands out an empty line; lookup and insert read only the
// decodes its mask marks, so a line rewound by reset needs only the
// mask cleared.
func (c *predecodeCache) newLine() *predecodeLine {
	switch {
	case c.first == nil:
		c.first = make([]predecodeLine, predecodeArenaLines)
		c.arena = c.first
	case c.arenaUsed == len(c.arena):
		if c.arena[0].next == nil {
			c.arena[0].next = make([]predecodeLine, predecodeArenaLines)
		}
		c.arena, c.arenaUsed = c.arena[0].next, 0
	}
	pl := &c.arena[c.arenaUsed]
	c.arenaUsed++
	pl.decoded = 0
	return pl
}

// lookup returns the cached decode starting at pa, if still valid, or
// nil. It returns a pointer into the line rather than a copy: the caller
// copies the whole Inst out in one move, where a returned value travels
// as eight registers that the caller stored back byte by byte and then
// reloaded wide, stalling on every hit.
func (c *predecodeCache) lookup(pm *mem.PhysMem, pa uint64) *isa.Inst {
	key := pa >> lineShift
	e := &c.memo[lineSlot(key)]
	if e.key1 != key+1 || e.writes != pm.CodeWrites() {
		pl := c.lines[key]
		if pl == nil {
			return nil
		}
		if g := pm.CodeGen(pa); pl.gen != g {
			// A write changed bytes in this frame since the line was
			// filled; drop its decodes and refill lazily.
			pl.decoded = 0
			pl.gen = g
		}
		*e = lineMemo{key1: key + 1, line: pl, writes: pm.CodeWrites()}
	}
	pl := e.line
	off := pa & (cache.LineSize - 1)
	if pl.decoded&(1<<off) == 0 {
		return nil
	}
	return &pl.insts[off]
}

// insert caches the decode starting at pa, registers its frame for
// write tracking and returns the cached copy. A current memo of pa's
// line needs neither: its frame was registered when the line was made.
func (c *predecodeCache) insert(pm *mem.PhysMem, pa uint64, in isa.Inst) *isa.Inst {
	key := pa >> lineShift
	e := &c.memo[lineSlot(key)]
	if e.key1 != key+1 || e.writes != pm.CodeWrites() {
		gen := pm.MarkCodeFrame(pa)
		pl := c.lines[key]
		if pl == nil {
			pl = c.newLine()
			pl.gen = gen
			c.lines[key] = pl
		} else if pl.gen != gen {
			pl.decoded = 0
			pl.gen = gen
		}
		*e = lineMemo{key1: key + 1, line: pl, writes: pm.CodeWrites()}
	}
	pl := e.line
	off := pa & (cache.LineSize - 1)
	pl.insts[off] = in
	pl.decoded |= 1 << off
	return &pl.insts[off]
}

// fetchMemo is a one-entry memo of the last successful instruction-page
// translation. All of its inputs are part of the key, so it is a pure
// cache over AddrSpace.Translate: the address-space pointer covers KPTI
// CR3 switches, the epoch covers Map/Unmap/SetPerm mutations, and the
// privilege flag covers user/kernel permission differences.
type fetchMemo struct {
	as    *mem.AddrSpace
	epoch uint64
	page  uint64 // VA of the page base
	base  uint64 // PA of the page base
	user  bool
	ok    bool
}

// translateFetch translates va for execution, memoizing the page
// translation. It is behavior-identical to AS().Translate(va, AccessFetch,
// !Kernel) — Translate is a pure function of the mapping state captured in
// the memo key — and charges nothing.
func (m *Machine) translateFetch(va uint64) (uint64, *mem.Fault) {
	as := m.AS()
	user := !m.Kernel
	if m.DisablePredecode {
		return m.xlate(va, mem.AccessFetch)
	}
	page := va &^ (mem.PageSize - 1)
	fm := &m.fmemo
	if fm.ok && fm.page == page && fm.as == as && fm.user == user && fm.epoch == as.Epoch() {
		return fm.base + (va - page), nil
	}
	pa, f := m.xlate(va, mem.AccessFetch)
	if f != nil {
		return 0, f
	}
	*fm = fetchMemo{as: as, epoch: as.Epoch(), page: page, base: pa - (va - page), user: user, ok: true}
	return pa, nil
}

// decodeAt returns the decoded instruction at va. Fast path: one memoized
// page translation, one predecode-cache probe, and on miss a decode
// straight out of the backing frame (mem.PhysMem.Window) with no copy and
// no allocation. Instructions whose 16-byte decode window straddles a page
// boundary — where the old path could legitimately truncate at an unmapped
// or non-executable neighbor page — always take the byte-at-a-time slow
// path, as does everything when DisablePredecode is set.
//
// The instruction comes back as a pointer into its predecode line, or
// into m.instScratch on the slow path, for the same reason lookup returns
// one; callers copy it out before their next decodeAt.
//
// decodeAt charges no cycles and touches no modeled structure; callers
// charge line-granular I-cache/µop timing exactly as they always did.
func (m *Machine) decodeAt(va uint64) (*isa.Inst, *mem.Fault) {
	if m.DisablePredecode || va&(mem.PageSize-1) > mem.PageSize-decodeWindow {
		bytes, f := m.fetchBytes(va, decodeWindow)
		if f != nil {
			return nil, f
		}
		m.instScratch = isa.Decode(bytes)
		return &m.instScratch, nil
	}
	pa, f := m.translateFetch(va)
	if f != nil {
		return nil, f
	}
	if in := m.pre.lookup(m.Phys, pa); in != nil {
		m.Debug.PredecodeHits++
		return in, nil
	}
	// The whole window sits inside va's page (checked above), and page
	// frames are window-aligned, so Window cannot fail and every byte
	// shares the one translation — exactly what the slow path would have
	// produced byte by byte.
	win, _ := m.Phys.Window(pa, decodeWindow)
	m.Debug.PredecodeMisses++
	return m.pre.insert(m.Phys, pa, isa.Decode(win)), nil
}
