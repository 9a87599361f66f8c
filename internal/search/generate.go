package search

import (
	"fmt"
	"math/rand"

	"phantom/internal/isa"
)

// The generator draws valid programs with a controlled mix of branch,
// load, store, serialization, timer and ALU statements. Everything is
// textual isa.Assemble syntax so a fixture is readable in review; the
// property test in internal/isa pins that the encoded form round-trips
// through the decoder byte-identically.
//
// Register discipline: generated statements only write the scratch
// pool below, never the harness pointers (RSI/R8 data, RDI trainer
// target, RSP stack base) — except push/pop, which move RSP by design
// and stay inside the mapped stack page for any statement count the
// generator emits.

// scratchRegs is the register pool generated statements operate on.
var scratchRegs = []int{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RBP, isa.R9, isa.R10, isa.R11}

// Mix holds the statement-class weights of the generator. The zero Mix
// is invalid; DefaultMix is what the search loop uses.
type Mix struct {
	Alu, Load, Store, Branch, Serial, Timer, Flush, Stack, Nop int
}

// DefaultMix weights the classes so that most programs contain memory
// traffic (the observable channels) and a meaningful minority contain
// branches, fences and timer reads.
var DefaultMix = Mix{Alu: 25, Load: 20, Store: 10, Branch: 10, Serial: 8, Timer: 5, Flush: 5, Stack: 7, Nop: 10}

func (m Mix) total() int {
	return m.Alu + m.Load + m.Store + m.Branch + m.Serial + m.Timer + m.Flush + m.Stack + m.Nop
}

// randStmt draws one statement. Branches may only target the shared
// "end" label (forward, so generated programs cannot loop).
func randStmt(rng *rand.Rand, mix Mix) string {
	reg := func() string { return isa.RegName(scratchRegs[rng.Intn(len(scratchRegs))]) }
	ptr := func() string {
		if rng.Intn(2) == 0 {
			return "rsi"
		}
		return "r8"
	}
	disp := func() int { return 8 * rng.Intn(64) }

	k := rng.Intn(mix.total())
	switch {
	case k < mix.Alu:
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("mov %s, %d", reg(), rng.Intn(1<<16))
		case 1:
			return fmt.Sprintf("mov %s, %s", reg(), reg())
		case 2:
			return fmt.Sprintf("add %s, %s", reg(), reg())
		case 3:
			return fmt.Sprintf("xor %s, %s", reg(), reg())
		case 4:
			return fmt.Sprintf("cmp %s, %d", reg(), rng.Intn(256))
		default:
			return fmt.Sprintf("shl %s, %d", reg(), 1+rng.Intn(6))
		}
	case k < mix.Alu+mix.Load:
		return fmt.Sprintf("mov %s, [%s+%d]", reg(), ptr(), disp())
	case k < mix.Alu+mix.Load+mix.Store:
		return fmt.Sprintf("mov [%s+%d], %s", ptr(), disp(), reg())
	case k < mix.Alu+mix.Load+mix.Store+mix.Branch:
		return []string{"jmp end", "jz end", "jnz end", "jb end", "jae end"}[rng.Intn(5)]
	case k < mix.Alu+mix.Load+mix.Store+mix.Branch+mix.Serial:
		if rng.Intn(2) == 0 {
			return "lfence"
		}
		return "mfence"
	case k < mix.Alu+mix.Load+mix.Store+mix.Branch+mix.Serial+mix.Timer:
		return "rdtsc"
	case k < mix.Alu+mix.Load+mix.Store+mix.Branch+mix.Serial+mix.Timer+mix.Flush:
		return fmt.Sprintf("clflush [%s+%d]", ptr(), disp())
	case k < mix.Alu+mix.Load+mix.Store+mix.Branch+mix.Serial+mix.Timer+mix.Flush+mix.Stack:
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("push %s", reg())
		}
		return fmt.Sprintf("pop %s", reg())
	default:
		return fmt.Sprintf("nop%d", 1+rng.Intn(5))
	}
}

// Generate draws the program for (arch, seed). It is a pure function
// of its arguments: the same pair always yields the same program, which
// is what lets the sweep partition the iteration space freely.
func Generate(arch string, seed int64) *Program {
	var g generator
	return g.generate(arch, seed)
}

// generator is the random source programs are drawn from. A search
// worker keeps one for all its programs: reseeding a source costs as
// much as seeding a new one, but allocates nothing.
type generator struct{ rng *rand.Rand }

// generate draws the program for (arch, seed) from g's source, reseeded
// with seed: a reseeded source draws exactly as rand.NewSource(seed)
// does, so this is Generate's program.
func (g *generator) generate(arch string, seed int64) *Program {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(seed))
	} else {
		g.rng.Seed(seed)
	}
	rng := g.rng
	p := &Program{
		Arch:   arch,
		Seed:   seed,
		Train:  trainKinds[rng.Intn(len(trainKinds))],
		Rounds: 1 + rng.Intn(3),
	}
	nv := 1 + rng.Intn(7)
	for i := 0; i < nv; i++ {
		p.Victim = append(p.Victim, randStmt(rng, DefaultMix))
	}
	// Gadget blocks lean toward a leading load: the disclosure-gadget
	// shape (P2/P3) whose wrong-path D-cache fill is the leak signal.
	ng := 1 + rng.Intn(5)
	for i := 0; i < ng; i++ {
		if i == 0 && rng.Intn(2) == 0 {
			p.Gadget = append(p.Gadget, "mov rax, [r8+0]")
			continue
		}
		p.Gadget = append(p.Gadget, randStmt(rng, DefaultMix))
	}
	return p
}

// deriveSeed spreads one base seed over the iteration space with a
// splitmix64 step, so program seeds are decorrelated however the sweep
// batches iterations.
func deriveSeed(base int64, iter int) int64 {
	z := uint64(base) + uint64(iter+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
