package core

import (
	"fmt"
	"math/rand"
	"sort"

	"phantom/internal/gf2"
	"phantom/internal/isa"
	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
	"phantom/internal/telemetry"
)

// collideLab is the Section 6.2 setup: a kernel address K "using a kernel
// module which contains nops followed by a return instruction", whose page
// the attacker makes user-accessible by editing its PTE so the victim
// instruction at K can be driven directly, plus a pool of probe gadgets
// C_i whose I-cache lines identify which of a batch of candidate training
// sources collided with K.
type collideLab struct {
	k     *kernel.Kernel
	kAddr uint64 // the kernel-address victim instruction

	probeVAs []uint64 // C_i: distinct user lines, one per batch slot
	probePAs []uint64
	stackVA  uint64
	retVA    uint64 // where K's ret architecturally lands

	// sharedTrainPA backs every candidate training page: all candidates
	// share K's low 12 bits, so one physical frame holding the jmp* at
	// that offset serves them all.
	sharedTrainPA uint64
}

// collideBatch is how many candidate addresses one victim run tests: each
// candidate trains a jmp* to its own probe gadget, so a single phantom
// fetch after the victim identifies the colliding candidate.
const collideBatch = 256

// newCollideLab boots the next of boots and prepares the probe pool.
func newCollideLab(boots *Reboots) (*collideLab, error) {
	k, err := boots.boot()
	if err != nil {
		return nil, err
	}
	lab := &collideLab{k: k}

	// K: the kmodule probe site (nops + ret). Make its page
	// user-accessible, as the paper does by changing the PTE attributes.
	lab.kAddr = k.Symbol("kmodule_probe")
	if !k.M.KernelAS.SetPerm(lab.kAddr&^(mem.PageSize-1), mem.PermRead|mem.PermExec|mem.PermUser) {
		return nil, fmt.Errorf("core: cannot open K's PTE")
	}

	// Probe pool: collideBatch executable lines, 64 bytes apart within
	// dedicated pages (4 per L1I set: within capacity). Each entry is a
	// few nops followed by int3 padding so a phantom fetch of entry j
	// dies inside its own line instead of running on into entry j+1 and
	// recording a false collision.
	poolBase := uint64(0x7f7000000000)
	blob := make([]byte, collideBatch*64)
	for i := range blob {
		if i%64 < 8 {
			blob[i] = 0x90
		} else {
			blob[i] = 0xcc
		}
	}
	if err := k.MapUserCode(poolBase, blob); err != nil {
		return nil, err
	}
	for i := 0; i < collideBatch; i++ {
		va := poolBase + uint64(i)*64
		lab.probeVAs = append(lab.probeVAs, va)
		pa, f := k.M.UserAS.Translate(va, mem.AccessRead, false)
		if f != nil {
			return nil, f
		}
		lab.probePAs = append(lab.probePAs, pa)
	}

	// Victim return plumbing.
	lab.stackVA = 0x7f7100000000
	if err := k.MapUserData(lab.stackVA, 8192); err != nil {
		return nil, err
	}
	// The architectural return site must not share K's page offset: the
	// candidates' low 12 bits are pinned to K's, and a candidate aliasing
	// the return site (instead of K) would record a false collision.
	lab.retVA = 0x7f7200000000 + ((lab.kAddr + 0x9c0) & 0xfff)
	ra := isa.NewAssembler(lab.retVA)
	ra.Hlt()
	rb, err := ra.Bytes()
	if err != nil {
		return nil, err
	}
	if err := k.MapUserCode(lab.retVA, rb); err != nil {
		return nil, err
	}

	// Shared training frame: int3 everywhere except the jmp* rdi at K's
	// page offset.
	lab.sharedTrainPA = k.Alloc.AllocSeq(mem.PageSize)
	frame := make([]byte, mem.PageSize)
	for i := range frame {
		frame[i] = 0xcc
	}
	copy(frame[lab.kAddr&0xfff:], isa.EncJmpInd(isa.RDI))
	k.M.Phys.WriteBytes(lab.sharedTrainPA, frame)
	return lab, nil
}

// runVictim executes the instruction at K (user mode, thanks to the PTE
// edit) and returns normally.
func (lab *collideLab) runVictim() error {
	m := lab.k.M
	m.Regs[isa.RSP] = lab.stackVA + 4096
	m.Regs[isa.RSP] -= 8
	if err := m.UserAS.Write64(m.Regs[isa.RSP], lab.retVA); err != nil {
		return err
	}
	if err := m.RunAt(lab.kAddr, 100).Expect(pipeline.StopHalt); err != nil {
		return fmt.Errorf("core: victim run at K: %w", err)
	}
	return nil
}

// trainCandidate maps (if needed) the page of candidate source u onto the
// shared training frame and executes the jmp* there toward the probe
// target. Candidates all carry K's low 12 bits, so the shared frame's
// branch lines up at every u. Any stop is fine, a cancelled one
// included: every training pass is followed by a runVictim, which
// reports the cancellation.
func (lab *collideLab) trainCandidate(u, target uint64, mapped map[uint64]bool) error {
	m := lab.k.M
	page := u &^ (mem.PageSize - 1)
	if !mapped[page] {
		if err := m.UserAS.Map(page, lab.sharedTrainPA, mem.PageSize,
			mem.PermRead|mem.PermExec|mem.PermUser); err != nil {
			return err
		}
		mapped[page] = true
	}
	m.Regs[isa.RDI] = target
	m.RunAt(u, 8) // lands on the probe gadget's nops
	return nil
}

// CollisionTest reports whether user-space source u shares a BTB slot
// with K, measured through the microarchitectural channel (train at u,
// run the victim at K, probe the training target's I-cache line).
func (lab *collideLab) collisionTest(u uint64, mapped map[uint64]bool) (bool, error) {
	m := lab.k.M
	m.IBPB()
	if err := lab.trainCandidate(u, lab.probeVAs[0], mapped); err != nil {
		return false, err
	}
	m.Hier.FlushLine(lab.probePAs[0])
	if err := lab.runVictim(); err != nil {
		return false, err
	}
	lat, ok := m.TimedFetch(lab.probeVAs[0])
	return ok && lat < fetchLatencyThreshold(m.Prof), nil
}

// BruteForceResult reports the Section 6.2 brute-force stage.
type BruteForceResult struct {
	Found  bool
	Mask   uint64 // flip pattern (including canonical high bits), if found
	Tested int
}

// BruteForceCollisions searches for a user/kernel aliasing pattern by
// flipping up to maxFlips bits (always including bit 47, which any
// kernel→user pattern must flip) of K, testing each via the channel. On
// the Zen 1/2 scheme a 4-bit pattern exists and is found; on Zen 3/4 all
// functions span 12 bits and the search comes up empty, which is exactly
// the paper's experience ("this approach does not yield any results ...
// when flipping up to 6 bits"). It runs on the next of boots.
func BruteForceCollisions(boots *Reboots, maxFlips int, budget int) (*BruteForceResult, error) {
	telemetry.CountExperiment("btb_bruteforce")
	lab, err := newCollideLab(boots)
	if err != nil {
		return nil, err
	}
	res := &BruteForceResult{}
	mapped := make(map[uint64]bool)

	// Enumerate flip sets of bits 12..46 of increasing size, plus the
	// mandatory b47 and canonicalizing high bits.
	var bits []int
	for b := 12; b <= 46; b++ {
		bits = append(bits, b)
	}
	var try func(start int, mask uint64, left int) (bool, error)
	try = func(start int, mask uint64, left int) (bool, error) {
		if res.Tested >= budget {
			return false, nil
		}
		if left == 0 {
			res.Tested++
			full := mask | 1<<47 | 0xffff000000000000
			hit, err := lab.collisionTest(lab.kAddr^full, mapped)
			if err != nil {
				return false, err
			}
			if hit {
				res.Found = true
				res.Mask = full
				return true, nil
			}
			return false, nil
		}
		for i := start; i < len(bits); i++ {
			done, err := try(i+1, mask|1<<uint(bits[i]), left-1)
			if done || err != nil {
				return done, err
			}
		}
		return false, nil
	}
	for flips := 0; flips <= maxFlips-1; flips++ { // -1: b47 is implicit
		done, err := try(0, 0, flips)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return res, nil
}

// RecoveryResult reports the SMT-solver-replacement stage: collision
// sampling plus GF(2) function recovery.
type RecoveryResult struct {
	Samples   int       // collisions observed
	Batches   int       // victim runs
	Functions []gf2.Vec // all recovered forms with weight <= MaxWeight
	// B47Functions are the forms involving bit 47 — the set Figure 7
	// publishes for Zen 3.
	B47Functions []gf2.Vec
	// TagOverlaps are the weight-2 forms, the paper's "b12 pairs with
	// b16, b13 with b17" observation.
	TagOverlaps []gf2.Vec
	// ExampleMask is a reconstructed cross-privilege collision pattern
	// (cf. the published 0xffffbff800000000).
	ExampleMask uint64
}

// RecoverBTBFunctions reproduces the Section 6.2 / Figure 7 methodology:
// sample random user addresses (low 12 bits pinned to K's, as the paper
// does to shrink the search space) in batches — each batch member trains
// toward its own probe line, so one victim run identifies any colliding
// member — then solve for the linear forms all collisions satisfy. The Z3
// SMT step of the paper reduces to GF(2) nullspace computation plus
// low-weight enumeration under the same "at most n coefficients"
// constraint (n = 4 in the paper). It runs on the next of boots, whose
// seed also draws the samples.
func RecoverBTBFunctions(boots *Reboots, wantSamples, maxBatches int) (*RecoveryResult, error) {
	telemetry.CountExperiment("btb_recovery")
	lab, err := newCollideLab(boots)
	if err != nil {
		return nil, err
	}
	m := lab.k.M
	rng := rand.New(rand.NewSource(boots.seed ^ 0xc0111de))
	res := &RecoveryResult{}
	if maxBatches == 0 {
		maxBatches = 4000
	}

	low12 := lab.kAddr & 0xfff
	diffs := gf2.NewMatrix(48)
	var sampleDiffs []gf2.Vec

	// Stop early once the difference space saturates: when hundreds of
	// batches stop producing new independent collisions, every further
	// sample is linearly dependent on what we have.
	const drySaturation = 800
	dry := 0

	for res.Samples < wantSamples && res.Batches < maxBatches && dry < drySaturation {
		res.Batches++
		dry++
		m.IBPB()
		mapped := make(map[uint64]bool)

		// Generate and train a batch of candidates.
		cands := make([]uint64, collideBatch)
		for i := range cands {
			u := (rng.Uint64() & 0x00007ffffffff000) | low12
			cands[i] = u
			if err := lab.trainCandidate(u, lab.probeVAs[i], mapped); err != nil {
				return nil, err
			}
		}
		for _, pa := range lab.probePAs {
			m.Hier.FlushLine(pa)
		}
		if err := lab.runVictim(); err != nil {
			return nil, err
		}
		for i, va := range lab.probeVAs {
			lat, ok := m.TimedFetch(va)
			if !ok || lat >= fetchLatencyThreshold(m.Prof) {
				continue
			}
			// Candidate i collided with K.
			d := gf2.Vec((cands[i] ^ lab.kAddr) & (1<<48 - 1))
			if d == 0 || diffs.InSpan(d) {
				continue // not new information
			}
			diffs.AddRow(d)
			sampleDiffs = append(sampleDiffs, d)
			res.Samples++
			dry = 0
		}
		// Unmap the batch's training pages to keep the address space
		// lean — in sorted order, so page-table and TLB state evolves
		// identically for a given seed regardless of map iteration.
		pages := make([]uint64, 0, len(mapped))
		for page := range mapped {
			pages = append(pages, page)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		for _, page := range pages {
			m.UserAS.Unmap(page, mem.PageSize)
		}
	}

	// The admissible functions are the forms orthogonal to every observed
	// difference, restricted to bits 12..47 (low bits were pinned, so
	// nothing is known — or needed — about them).
	constraints := diffs.Clone()
	for b := 0; b < 12; b++ {
		constraints.AddRow(gf2.Vec(1) << uint(b))
	}
	basis := constraints.Nullspace()
	if len(basis) > 24 {
		// Too few independent collisions: the admissible space is still
		// huge and enumeration would mostly produce artifacts. Report the
		// samples gathered; the caller can ask for more.
		return res, nil
	}
	res.Functions = gf2.LowWeightForms(basis, 4)
	for _, f := range res.Functions {
		if f&(1<<47) != 0 {
			res.B47Functions = append(res.B47Functions, f)
		}
		if f.Weight() == 2 {
			res.TagOverlaps = append(res.TagOverlaps, f)
		}
	}
	// Reconstruct an example collision mask from the observed samples.
	if len(sampleDiffs) > 0 {
		for _, d := range sampleDiffs {
			if d&(1<<47) != 0 {
				res.ExampleMask = uint64(d) | 0xffff000000000000
				break
			}
		}
	}
	return res, nil
}
