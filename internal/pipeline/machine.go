// Package pipeline implements the simulated machine: a decoupled
// frontend/backend x86-like pipeline with branch prediction before
// instruction decode, per Figure 2 of the paper.
//
// # Execution model
//
// The machine interprets the architectural instruction stream one
// instruction at a time, charging cycles for fetch (I-TLB, I-cache
// hierarchy), decode (µop cache), execution (D-TLB, D-cache hierarchy)
// and branch resteers. At every instruction fetch the BTB is consulted
// *before* the bytes are decoded. When the prediction disagrees with what
// the decoder or the execute stage later establishes, the machine runs a
// bounded wrong-path "speculation episode" that leaves real footprints in
// the I-cache, µop cache and D-cache — the footprints Phantom measures —
// and then resteers.
//
// Two windows bound an episode (uarch.Profile): the Phantom window for
// decoder-detectable mispredictions (frontend-issued resteer) and the much
// longer Spectre window for execute-resolved ones (backend-issued
// resteer). On Zen 1/2 the Phantom window dispatches a handful of µops —
// enough for exactly the single memory load the paper's P2/P3 primitives
// need; on Zen 3/4 and Intel wrong-path µops of decoder-detectable
// mispredictions never dispatch.
package pipeline

import (
	"context"
	"fmt"
	"math/rand"

	"phantom/internal/btb"
	"phantom/internal/cache"
	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/telemetry"
	"phantom/internal/uarch"
)

// Machine is one simulated logical CPU plus its memory system.
type Machine struct {
	Prof *uarch.Profile
	MSR  uarch.MSRState

	Phys *mem.PhysMem
	// UserAS is the address space active in user mode. KernelAS is the
	// one active in kernel mode; without KPTI both point to the same
	// AddrSpace.
	UserAS   *mem.AddrSpace
	KernelAS *mem.AddrSpace

	Hier *cache.Hierarchy
	Uop  *cache.Cache
	ITLB *mem.TLB
	DTLB *mem.TLB

	BTB *btb.BTB
	RSB *btb.RSB
	PHT *btb.PHT

	// Architectural state.
	Regs   [isa.NumRegs]uint64
	ZF, CF bool
	RIP    uint64
	Kernel bool

	// Cycle is the global clock, visible to simulated code via rdtsc.
	Cycle uint64

	Perf  PerfCounters
	Debug DebugCounters

	// SyscallEntry is the kernel entry point used when user code executes
	// syscall. Zero means syscall faults (no kernel installed).
	SyscallEntry uint64
	// KPTI selects kernel page-table isolation: user mode then runs on
	// UserAS with no kernel text mapped except the entry trampoline.
	KPTI bool

	// Noise injects stochastic cache perturbation, modeling the system
	// call thrash and sibling-thread interference of Section 7.3.
	Noise *NoiseSource

	// Tracer, when non-nil, receives pipeline events (see trace.go).
	Tracer Tracer

	// DisablePredecode routes instruction fetch+decode through the
	// original byte-at-a-time path instead of the predecode cache. The
	// cache is an interpreter optimization that charges no cycles, so
	// both modes must render byte-identical experiment output; parity
	// tests prove it by binding a WithReferenceFetch context, which sets
	// this field (see predecode.go).
	DisablePredecode bool

	// DisableSpeculation suppresses every wrong-path effect: speculation
	// episodes, the decoupled fetcher's fall-through prefetch, and the
	// I-cache fill of a rejected prediction's target. Predictor training,
	// architectural execution, and resteer penalties are untouched, so a
	// run with the flag set is the "mispredict-off" reference leg of a
	// differential pair (internal/search): any divergence against a run
	// with the flag clear is, by construction, an effect of transient
	// execution.
	DisableSpeculation bool

	rng *rand.Rand

	// ctx is the run context bound by Bind and done its cached Done
	// channel; both nil on an unbound machine, which Run never cancels.
	ctx  context.Context
	done <-chan struct{}

	// pre caches decoded instructions per physical code line; fmemo
	// memoizes the last instruction-page translation (predecode.go).
	pre   predecodeCache
	fmemo fetchMemo

	// tstat/tshard/tlast batch harness-side interpreter tallies into
	// the process telemetry hub at Run boundaries (telemetry.go). All
	// nil/zero when telemetry is disabled.
	tstat  *telemetry.PipelineStats
	tshard int
	tlast  telemetryBaseline

	// stopScratch backs the *RunResult returned by step/exec/fault so
	// the interpreter's stop path doesn't heap-allocate. Run copies the
	// value out before the next step can overwrite it. faultScratch
	// likewise backs the *mem.Fault those results carry: training
	// primitives fault by design on every probe, so the fault path is as
	// hot as the success path. Both are overwritten by the next step —
	// harnesses consume results before resuming the machine.
	stopScratch  RunResult
	faultScratch mem.Fault

	// syscallRet holds the user RIP+2 saved by syscall; kernel-mode
	// syscall acts as sysret back to it.
	syscallRet uint64

	// lastFetchLine/lastUopLine dedupe per-line charges within the
	// sequential stream; lastUopLineMissed remembers whether the current
	// line came from the decoder rather than the µop cache.
	lastFetchLine     uint64
	lastUopLine       uint64
	lastUopLineMissed bool
}

// New returns a machine with the given profile, physical memory size and
// RNG seed. The address spaces start empty; callers (the kernel package or
// tests) install mappings and code.
func New(p *uarch.Profile, physBytes uint64, seed int64) *Machine {
	rng := rand.New(&lazySource{})
	phys := mem.NewPhysMem(physBytes)
	m := &Machine{
		Prof:   p,
		Phys:   phys,
		UserAS: mem.NewAddrSpace(phys),
		Hier: &cache.Hierarchy{
			L1I: cache.New(p.L1I),
			L1D: cache.New(p.L1D),
			L2:  cache.New(p.L2),
		},
		Uop:   cache.New(p.UopCache),
		ITLB:  mem.NewTLB(64, 8),
		DTLB:  mem.NewTLB(64, 8),
		BTB:   btb.New(p.NewScheme(), p.BTBWays),
		RSB:   btb.NewRSB(p.RSBDepth),
		PHT:   btb.NewPHT(p.PHTBits),
		Noise: &NoiseSource{},
		rng:   rng,
		pre:   newPredecodeCache(),
	}
	m.Reset(seed)
	return m
}

// Reset puts the machine back into exactly the state
// New(m.Prof, m.Phys.Size(), seed) returns while keeping its
// allocations, so a harness that runs many short programs can reuse one
// machine. Every layer empties in place: memory, mappings (KPTI undone),
// caches, TLBs, predictors, the predecode cache. Registers, clock,
// counters, MSRs, the tracer and the bound context clear, noise returns
// to level 1, and the RNG draws as a fresh one seeded with seed. Like
// New, a reset counts one pipeline_boots, so telemetry counts stay a
// function of the programs run, not of how machines were reused.
func (m *Machine) Reset(seed int64) {
	m.Phys.Reset()
	m.UserAS.Reset()
	m.Hier.L1I.Reset()
	m.Hier.L1D.Reset()
	m.Hier.L2.Reset()
	m.Hier.MemLatency = m.Prof.MemLatency
	m.Uop.Reset()
	m.ITLB.Reset()
	m.DTLB.Reset()
	m.BTB.Reset()
	m.RSB.Reset()
	m.PHT.Reset()
	m.pre.reset()
	m.rng.Seed(seed)
	*m.Noise = NoiseSource{m: m, rng: m.rng, Level: 1}
	// Every field not named here takes its zero value.
	*m = Machine{
		Prof:     m.Prof,
		Phys:     m.Phys,
		UserAS:   m.UserAS,
		KernelAS: m.UserAS,
		Hier:     m.Hier,
		Uop:      m.Uop,
		ITLB:     m.ITLB,
		DTLB:     m.DTLB,
		BTB:      m.BTB,
		RSB:      m.RSB,
		PHT:      m.PHT,
		Noise:    m.Noise,
		rng:      m.rng,
		pre:      m.pre,

		lastFetchLine: ^uint64(0),
		lastUopLine:   ^uint64(0),
	}
	m.attachTelemetry()
}

// lazySource is math/rand's default source, seeded on its first draw
// rather than by Seed: seeding costs more than a short program's whole
// simulation, and most machines never draw. Its draws equal those of
// rand.NewSource(seed).
type lazySource struct {
	src    rand.Source64 // nil until the first draw
	seed   int64
	seeded bool
}

func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }

func (s *lazySource) Int63() int64 { return s.source().Int63() }

func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

func (s *lazySource) source() rand.Source64 {
	if !s.seeded {
		if s.src == nil {
			s.src = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.src.Seed(s.seed)
		}
		s.seeded = true
	}
	return s.src
}

// referenceFetch is the context key of WithReferenceFetch's mark.
type referenceFetch struct{}

// WithReferenceFetch marks ctx so every machine bound to it fetches
// through the byte-at-a-time reference path instead of the predecode
// cache. It exists for the parity tests: an experiment must render the
// same bytes with and without the mark.
func WithReferenceFetch(ctx context.Context) context.Context {
	return context.WithValue(ctx, referenceFetch{}, true)
}

// Bind ties the machine to a run's context, read once here: Run stops
// with StopCancelled once ctx is done, and a WithReferenceFetch mark
// selects the reference fetch path. The kernel binds at boot and the
// user-space labs when they build their machine. A nil ctx leaves the
// machine unbound.
func (m *Machine) Bind(ctx context.Context) {
	if ctx == nil {
		return
	}
	m.ctx, m.done = ctx, ctx.Done()
	if ctx.Value(referenceFetch{}) != nil {
		m.DisablePredecode = true
	}
}

// AS returns the active address space for the current privilege mode.
func (m *Machine) AS() *mem.AddrSpace {
	if m.Kernel {
		return m.KernelAS
	}
	return m.UserAS
}

// RNG exposes the machine's deterministic random source for harness use.
func (m *Machine) RNG() *rand.Rand { return m.rng }

// tlbLatency charges a page-walk penalty on TLB miss.
const tlbMissPenalty = 20

// xlate translates va through the active address space without heap-
// allocating on fault: the fault value lands in faultScratch and the
// returned pointer aliases it until the next faulting translation.
func (m *Machine) xlate(va uint64, kind mem.AccessKind) (uint64, *mem.Fault) {
	pa, fv, ok := m.AS().TranslateV(va, kind, !m.Kernel)
	if !ok {
		m.faultScratch = fv
		return 0, &m.faultScratch
	}
	return pa, nil
}

// fetchLatency translates va for execution and charges I-TLB + I-cache
// hierarchy timing for its line. It returns the physical address.
func (m *Machine) fetchLatency(va uint64) (uint64, *mem.Fault) {
	pa, f := m.xlate(va, mem.AccessFetch)
	if f != nil {
		return 0, f
	}
	if !m.ITLB.Lookup(va) {
		m.Cycle += tlbMissPenalty
	}
	m.Cycle += uint64(m.Hier.AccessFetch(pa))
	return pa, nil
}

// dataAccess translates va for a load/store and charges D-TLB + D-cache
// timing. kind is AccessRead or AccessWrite.
func (m *Machine) dataAccess(va uint64, kind mem.AccessKind) (uint64, *mem.Fault) {
	pa, f := m.xlate(va, kind)
	if f != nil {
		return 0, f
	}
	if !m.DTLB.Lookup(va) {
		m.Cycle += tlbMissPenalty
	}
	m.Cycle += uint64(m.Hier.AccessData(pa))
	return pa, nil
}

// fetchBytes reads up to n instruction bytes at va for the decoder, via
// the active translation, without charging timing (timing is charged
// line-granularly by the caller). This is the slow path, shared by the
// architectural and wrong-path walkers: decodeAt uses it whenever the
// decode window may cross a page boundary — the one case where truncating
// at an unmapped neighbor page matters — and for all fetches when the
// predecode cache is disabled.
func (m *Machine) fetchBytes(va uint64, n int) ([]byte, *mem.Fault) {
	buf := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		pa, f := m.xlate(va+uint64(i), mem.AccessFetch)
		if f != nil {
			if i == 0 {
				return nil, f
			}
			break // instruction may still decode from fewer bytes
		}
		buf = append(buf, m.Phys.Read8(pa))
	}
	return buf, nil
}

// --- Harness-side probing helpers -------------------------------------
//
// These give attack orchestration code (the Go side of an experiment) the
// same observation power an attacker process has: timing its own fetches
// and loads, and flushing its own lines. They go through the same TLB,
// cache and clock paths as simulated code, just without the interpreter
// overhead of running a probe loop instruction by instruction.

// TimedFetch performs a user-mode instruction fetch of va and returns its
// latency in cycles (the Prime+Probe / Evict+Time primitive on the
// I-cache). Unmapped or non-executable targets return ok=false.
func (m *Machine) TimedFetch(va uint64) (int, bool) {
	m.countTimedProbe()
	pa, f := m.AS().Translate(va, mem.AccessFetch, !m.Kernel)
	if f != nil {
		return 0, false
	}
	lat := 0
	if !m.ITLB.Lookup(va) {
		lat += tlbMissPenalty
	}
	lat += m.Hier.AccessFetch(pa)
	m.Cycle += uint64(lat)
	return lat, true
}

// TimedLoad performs a user-mode data load of va and returns its latency
// in cycles (Prime+Probe / Flush+Reload on the data side).
func (m *Machine) TimedLoad(va uint64) (int, bool) {
	m.countTimedProbe()
	pa, f := m.AS().Translate(va, mem.AccessRead, !m.Kernel)
	if f != nil {
		return 0, false
	}
	lat := 0
	if !m.DTLB.Lookup(va) {
		lat += tlbMissPenalty
	}
	lat += m.Hier.AccessData(pa)
	m.Cycle += uint64(lat)
	return lat, true
}

// FlushVA removes the line containing va from all cache levels (clflush
// from the harness). It requires a user-accessible mapping, like the real
// instruction.
func (m *Machine) FlushVA(va uint64) bool {
	pa, f := m.AS().Translate(va, mem.AccessRead, !m.Kernel)
	if f != nil {
		return false
	}
	m.Hier.FlushLine(pa)
	m.Cycle += 40
	return true
}

// WriteMSRSuppressBPOnNonBr sets the SuppressBPOnNonBr bit (MSR
// 0xC00110E3). It reports whether the part supports it (not on Zen 1,
// Section 8.1).
func (m *Machine) WriteMSRSuppressBPOnNonBr(on bool) bool {
	if !m.Prof.SupportsSuppressBPOnNonBr {
		return false
	}
	m.MSR.SuppressBPOnNonBr = on
	return true
}

// WriteMSRAutoIBRS enables or disables AutoIBRS; supported on Zen 4 only.
func (m *Machine) WriteMSRAutoIBRS(on bool) bool {
	if !m.Prof.SupportsAutoIBRS {
		return false
	}
	m.MSR.AutoIBRS = on
	return true
}

// IBPB flushes all branch predictor state (the strong interpretation of
// Section 8.2 in which IBPB removes all prediction types).
func (m *Machine) IBPB() {
	m.BTB.FlushAll()
	m.RSB.Clear()
}

func (m *Machine) String() string {
	return fmt.Sprintf("machine(%s, rip=%#x, kernel=%v, cycle=%d)",
		m.Prof, m.RIP, m.Kernel, m.Cycle)
}
