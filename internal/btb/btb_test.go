package btb

import (
	"math/rand"
	"reflect"
	"testing"

	"phantom/internal/isa"
)

const kernelText = uint64(0xffffffff81000000)

func TestZen34PublishedMasksCollide(t *testing.T) {
	s := NewZen34Scheme("zen3")
	for _, mask := range []uint64{Zen34CollisionMaskA, Zen34CollisionMaskB} {
		k := kernelText + 0xf6520
		u := k ^ mask
		if !s.Collides(k, true, u, false) {
			t.Errorf("mask %#x does not collide on %s", mask, s.SchemeName)
		}
		if u>>47 != 0 {
			t.Errorf("mask %#x does not produce a canonical user address: %#x", mask, u)
		}
	}
}

func TestZen34SmallFlipsDoNotCollide(t *testing.T) {
	// The paper's brute force over <= 6 flipped bits failed on Zen 3
	// (Section 6.2). Verify no mask with <= 6 set bits in [12,47] collides.
	s := NewZen34Scheme("zen3")
	k := kernelText + 0x41db60
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200000; trial++ {
		mask := uint64(0)
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			mask |= 1 << uint(12+rng.Intn(36))
		}
		if mask&(1<<47) == 0 {
			continue // user address requires flipping b47
		}
		if s.Collides(k, true, k^mask, false) {
			t.Fatalf("small mask %#x collides; Zen3 scheme too weak", mask)
		}
	}
}

func TestZen12MaskCollides(t *testing.T) {
	s := NewZen12Scheme("zen2")
	k := kernelText + 0x1234
	u := k ^ Zen12CollisionMask ^ 0xffff000000000000
	if !s.Collides(k, true, u, false) {
		t.Fatal("Zen12CollisionMask does not collide")
	}
}

func TestIntelNoCrossPrivCollision(t *testing.T) {
	s := NewIntelScheme("intel")
	k := kernelText + 0x4000
	// Even an identical address does not collide across privilege.
	if s.Collides(k, true, k, false) {
		t.Fatal("Intel scheme reuses predictions across privilege")
	}
	if _, ok := CrossPrivAliasMask(s); ok {
		t.Fatal("CrossPrivAliasMask should not exist for Intel scheme")
	}
}

func TestCrossPrivAliasMaskDerivation(t *testing.T) {
	for _, mk := range []struct {
		name string
		s    *Scheme
	}{
		{"zen12", NewZen12Scheme("zen12")},
		{"zen34", NewZen34Scheme("zen34")},
	} {
		mask, ok := CrossPrivAliasMask(mk.s)
		if !ok {
			t.Fatalf("%s: no cross-priv mask found", mk.name)
		}
		if mask&(1<<47) == 0 {
			t.Fatalf("%s: mask %#x does not flip b47", mk.name, mask)
		}
		k := kernelText + 0xabc000
		if !mk.s.Collides(k, true, k^mask, false) {
			t.Fatalf("%s: derived mask %#x does not collide", mk.name, mask)
		}
		if (k^mask)>>47 != 0 {
			t.Fatalf("%s: derived mask %#x does not canonicalize", mk.name, mask)
		}
	}
}

func TestSamePrivAliasMask(t *testing.T) {
	for _, s := range []*Scheme{
		NewZen12Scheme("zen12"), NewZen34Scheme("zen34"), NewIntelScheme("intel"),
	} {
		mask, ok := SamePrivAliasMask(s)
		if !ok {
			t.Fatalf("%s: no same-priv mask", s.SchemeName)
		}
		if mask == 0 || mask&(1<<47) != 0 || mask&0xfff != 0 {
			t.Fatalf("%s: bad mask %#x", s.SchemeName, mask)
		}
		a := uint64(0x555500000000) | 0x6a0
		if !s.Collides(a, false, a^mask, false) {
			t.Fatalf("%s: same-priv mask %#x does not collide", s.SchemeName, mask)
		}
	}
}

func TestSchemeIndexIsLinear(t *testing.T) {
	// Property: Index(a) XOR Index(b) == Index(a XOR b) XOR Index(0) for
	// linear forms (Index(0) == 0 here).
	s := NewZen34Scheme("zen34")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := rng.Uint64() & (1<<48 - 1)
		b := rng.Uint64() & (1<<48 - 1)
		if s.Index(a)^s.Index(b) != s.Index(a^b) {
			t.Fatalf("index not linear at %#x, %#x", a, b)
		}
	}
}

func TestBTBTrainingClassDeterminesPrediction(t *testing.T) {
	// The central Phantom mechanism: an entry trained by a jmp* imposes
	// jmp* semantics at any aliasing lookup address.
	b := New(NewZen12Scheme("zen2"), 2)
	src := uint64(0x400000)
	target := uint64(0x500000)
	b.Update(src, false, isa.BrJmpInd, target)

	pred, ok := b.Lookup(src, false)
	if !ok {
		t.Fatal("no prediction after training")
	}
	if pred.Class != isa.BrJmpInd || pred.Target != target {
		t.Fatalf("pred = %+v", pred)
	}

	// Aliased address sees the same prediction.
	alias := src ^ Zen12CollisionMask
	pred, ok = b.Lookup(alias, false)
	if !ok {
		t.Fatal("aliased lookup missed")
	}
	if pred.Class != isa.BrJmpInd || pred.Target != target {
		t.Fatalf("aliased pred = %+v", pred)
	}

	// Non-aliased address sees nothing.
	if _, ok := b.Lookup(src^0x1000, false); ok {
		t.Fatal("non-aliased lookup hit")
	}
}

func TestBTBDirectTargetsArePCRelative(t *testing.T) {
	// Section 5.2: direct branch targets are served PC-relative, so an
	// aliased victim's predicted target is shifted by the same delta —
	// the reason Figure 5A probes C' = B + (C - A).
	b := New(NewZen12Scheme("zen2"), 2)
	src := uint64(0x400000)
	target := src + 0x2000
	b.Update(src, false, isa.BrJmp, target)

	alias := src ^ Zen12CollisionMask
	pred, ok := b.Lookup(alias, false)
	if !ok {
		t.Fatal("aliased lookup missed")
	}
	want := alias + 0x2000
	if pred.Target != want {
		t.Fatalf("aliased direct target = %#x, want %#x", pred.Target, want)
	}
}

func TestBTBRetClassHasNoTarget(t *testing.T) {
	b := New(NewZen12Scheme("zen2"), 2)
	b.Update(0x400000, false, isa.BrRet, 0x1234)
	pred, ok := b.Lookup(0x400000, false)
	if !ok || pred.Class != isa.BrRet {
		t.Fatalf("pred = %+v ok=%v", pred, ok)
	}
	if pred.Target != 0 {
		t.Fatalf("ret-class prediction carries a BTB target %#x", pred.Target)
	}
}

func TestBTBNonBranchNeverTrains(t *testing.T) {
	b := New(NewZen12Scheme("zen2"), 2)
	b.Update(0x400000, false, isa.BrNone, 0x500000)
	if _, ok := b.Lookup(0x400000, false); ok {
		t.Fatal("BrNone created a BTB entry")
	}
	if b.Occupancy() != 0 {
		t.Fatal("occupancy nonzero")
	}
}

// TestBTBEvictionLRU fills a 2-way set and trains a third branch into
// it: the way evicted must be the least recently used one, and a hit
// counts as a use.
func TestBTBEvictionLRU(t *testing.T) {
	b := New(NewZen12Scheme("zen2"), 2)
	s := b.Scheme()
	// On the Zen 1/2 scheme, flipping bit 12+i together with bit 24+i
	// keeps index function i's parity and flips tag function i's: the
	// same set under a different tag.
	a1 := uint64(0x400000)
	a2, a3 := a1^(1<<12|1<<24), a1^(1<<13|1<<25)
	for _, va := range []uint64{a2, a3} {
		if s.Index(va) != s.Index(a1) || s.Tag(va, false) == s.Tag(a1, false) {
			t.Fatalf("%#x does not share %#x's set under another tag", va, a1)
		}
	}
	b.Update(a1, false, isa.BrJmpInd, 0x111000)
	b.Update(a2, false, isa.BrJmpInd, 0x222000)
	// Refresh a1, so a2 is the least recently used way although a1 was
	// trained first.
	if _, ok := b.Lookup(a1, false); !ok {
		t.Fatal("a1 evicted before the set was full")
	}
	b.Update(a3, false, isa.BrJmpInd, 0x333000)
	for _, c := range []struct {
		name string
		va   uint64
		want bool
	}{{"a1", a1, true}, {"a2", a2, false}, {"a3", a3, true}} {
		if _, ok := b.Lookup(c.va, false); ok != c.want {
			t.Errorf("after training a3: %s present = %v, want %v", c.name, ok, c.want)
		}
	}
	b.FlushAll()
	if b.Occupancy() != 0 {
		t.Fatal("FlushAll left entries")
	}
}

func TestRSBLIFOAndWrap(t *testing.T) {
	r := NewRSB(4)
	for i := 1; i <= 6; i++ {
		r.Push(uint64(i) * 0x100)
	}
	// Capacity 4: entries 3..6 live; pops come newest-first.
	for want := 6; want >= 3; want-- {
		got, ok := r.Pop()
		if !ok || got != uint64(want)*0x100 {
			t.Fatalf("Pop = %#x ok=%v, want %#x", got, ok, want*0x100)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop from drained RSB succeeded")
	}
}

func TestRSBStuffing(t *testing.T) {
	r := NewRSB(8)
	r.Fill(0xdead0000)
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != 0xdead0000 {
			t.Fatalf("stuffed pop %d = %#x ok=%v", i, v, ok)
		}
	}
}

func TestPHTSaturatingTraining(t *testing.T) {
	p := NewPHT(10)
	pc := uint64(0x400123)
	if p.Predict(pc) {
		t.Fatal("fresh PHT predicts taken")
	}
	p.Update(pc, true)
	p.Update(pc, true)
	if !p.Predict(pc) {
		t.Fatal("PHT not taken after two taken updates")
	}
	// One not-taken should not flip a saturated counter.
	p.Update(pc, true)
	p.Update(pc, false)
	if !p.Predict(pc) {
		t.Fatal("saturated counter flipped by single not-taken")
	}
}

func TestResetMatchesNew(t *testing.T) {
	s := NewZen12Scheme("zen2")
	used, fresh := New(s, 2), New(s, 2)
	rng := rand.New(rand.NewSource(5))
	train := func(b *BTB, n int, rng *rand.Rand) {
		for i := 0; i < n; i++ {
			va := rng.Uint64() & 0x7fffffffffff
			b.Update(va, i%3 == 0, isa.BrJmpInd, va+0x40)
			b.Lookup(va, false)
		}
	}
	train(used, 200, rng) // sets from several arena chunks
	used.Reset()
	if used.Occupancy() != 0 || used.StateDigest() != fresh.StateDigest() ||
		used.Lookups != 0 || used.Hits != 0 || used.tick != 0 {
		t.Fatalf("reset BTB is not empty: %v, %d lookups, %d hits, tick %d", used, used.Lookups, used.Hits, used.tick)
	}
	train(used, 50, rand.New(rand.NewSource(6)))
	train(fresh, 50, rand.New(rand.NewSource(6)))
	if used.StateDigest() != fresh.StateDigest() || used.Hits != fresh.Hits {
		t.Fatal("a reset BTB trains differently from a new one")
	}

	r := NewRSB(4)
	for i := uint64(1); i <= 6; i++ {
		r.Push(i * 0x100)
	}
	r.Reset()
	if want := NewRSB(4); !reflect.DeepEqual(r, want) {
		t.Fatalf("reset RSB %+v, new RSB %+v", r, want)
	}

	p := NewPHT(6)
	for i := uint64(0); i < 100; i++ {
		p.Update(i*7, i%2 == 0)
	}
	p.Reset()
	if want := NewPHT(6); !reflect.DeepEqual(p, want) {
		t.Fatal("reset PHT differs from a new one")
	}
}
