package search

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestGeneratePure pins that Generate is a pure function of
// (arch, seed) — the property that lets the sweep partition the
// iteration space freely.
func TestGeneratePure(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate("zen2", seed)
		b := Generate("zen2", seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenerateBuilds: every generated program must assemble and map —
// the generator's grammar is a subset of what isa.Assemble accepts, and
// a program that fails buildLab would abort a whole search batch.
func TestGenerateBuilds(t *testing.T) {
	var r rig
	for seed := int64(0); seed < 200; seed++ {
		p := Generate("zen2", deriveSeed(3, int(seed)))
		if _, err := buildLab(&r, p); err != nil {
			t.Fatalf("seed %d: program does not build: %v\nvictim: %q\ngadget: %q",
				p.Seed, err, p.Victim, p.Gadget)
		}
	}
}

// TestGenerateRunsClean: RunDiff must succeed on arbitrary generated
// programs — train, run, diff, no step-limit surprises.
func TestGenerateRunsClean(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := Generate("zen4", deriveSeed(11, int(seed)))
		if _, err := RunDiff(p); err != nil {
			t.Fatalf("seed %d: %v", p.Seed, err)
		}
	}
}

// TestGenerateTrainKinds: over enough seeds the generator must draw
// every trainer class — a missing class would silently shrink the
// search space.
func TestGenerateTrainKinds(t *testing.T) {
	seen := make(map[string]bool)
	for seed := int64(0); seed < 300; seed++ {
		seen[Generate("zen2", seed).Train] = true
	}
	for _, k := range trainKinds {
		if !seen[k] {
			t.Errorf("trainer class %q never drawn in 300 seeds", k)
		}
	}
}

// TestDeriveSeedSpreads: derived seeds must be distinct across a large
// iteration range (a collision would run the same program twice and
// cost budget).
func TestDeriveSeedSpreads(t *testing.T) {
	seen := make(map[int64]int)
	for it := 0; it < 100000; it++ {
		s := deriveSeed(1, it)
		if prev, dup := seen[s]; dup {
			t.Fatalf("deriveSeed(1, %d) == deriveSeed(1, %d) == %d", it, prev, s)
		}
		seen[s] = it
	}
}

// TestMixTotal guards the weight table against a zero-total edit, which
// would make randStmt panic on Intn(0).
func TestMixTotal(t *testing.T) {
	if DefaultMix.total() <= 0 {
		t.Fatalf("DefaultMix.total() = %d", DefaultMix.total())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if s := randStmt(rng, DefaultMix); s == "" {
			t.Fatal("randStmt returned empty statement")
		}
	}
}
