package btb

import (
	"math/rand"
	"testing"

	"phantom/internal/isa"
)

// TestBTBDigestRankNotTicks pins the digest's core contract: recency is
// hashed as rank within a set, never as raw tick values. Two BTBs whose
// sets would evict the same victims must digest identically even when
// one performed more lookups.
func TestBTBDigestRankNotTicks(t *testing.T) {
	mk := func(extraLookups int) *BTB {
		b := New(NewZen12Scheme("zen2"), 2)
		b.Update(0x400000, false, isa.BrJmpInd, 0x500000)
		b.Update(0x410000, false, isa.BrJmp, 0x414000)
		for i := 0; i < extraLookups; i++ {
			// Repeated hits on the same entry bump its tick but cannot
			// change any set's recency ranking.
			if _, ok := b.Lookup(0x400000, false); !ok {
				t.Fatal("trained entry missed")
			}
		}
		return b
	}
	few, many := mk(1), mk(25)
	if few.StateDigest() != many.StateDigest() {
		t.Fatal("digest depends on raw lookup ticks, not recency rank")
	}
}

// TestBTBDigestSeesRecencyReorder: a wrong-path lookup that refreshes
// the colder way of a full set reorders replacement and must change the
// digest — that reordering is exactly the predictor-state divergence
// the differential search detects.
func TestBTBDigestSeesRecencyReorder(t *testing.T) {
	// Two addresses in the same set with *different* tags, so they
	// occupy two ways (an aliasing-mask pair would share a tag and
	// collapse into one entry).
	s := NewZen12Scheme("zen2")
	base := uint64(0x400000)
	var other uint64
	for va := base + 0x1000; va < base+(1<<32); va += 0x1000 {
		if s.Index(va) == s.Index(base) && s.Tag(va, false) != s.Tag(base, false) {
			other = va
			break
		}
	}
	if other == 0 {
		t.Fatal("no same-set different-tag address found")
	}
	mk := func() *BTB {
		b := New(NewZen12Scheme("zen2"), 2)
		b.Update(base, false, isa.BrJmpInd, 0x111000)
		b.Update(other, false, isa.BrJmpInd, 0x222000)
		return b
	}
	plain := mk()
	touched := mk()
	// Refresh the older way: recency order flips within the set.
	if _, ok := touched.Lookup(base, false); !ok {
		t.Fatal("first-trained entry missed")
	}
	if plain.StateDigest() == touched.StateDigest() {
		t.Fatal("digest blind to a recency reorder within a set")
	}
}

func TestBTBDigestSeesContents(t *testing.T) {
	a := New(NewZen12Scheme("zen2"), 2)
	b := New(NewZen12Scheme("zen2"), 2)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("empty BTBs digest differently")
	}
	a.Update(0x400000, false, isa.BrJmpInd, 0x500000)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest blind to an installed entry")
	}
	b.Update(0x400000, false, isa.BrJmpInd, 0x500040)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest blind to the entry target")
	}
	a.FlushAll()
	b.FlushAll()
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("flushed BTBs digest differently")
	}
}

func TestBTBDigestPrivilegeTagged(t *testing.T) {
	a := New(NewZen12Scheme("zen2"), 2)
	b := New(NewZen12Scheme("zen2"), 2)
	a.Update(0x400000, false, isa.BrJmpInd, 0x500000)
	b.Update(0x400000, true, isa.BrJmpInd, 0x500000)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest blind to the kernel bit")
	}
}

// TestRSBDigestPopOrder: the digest walks live entries in pop order, so
// it distinguishes stacks with the same multiset of values in different
// orders, ignores dead slots, and survives wraparound.
func TestRSBDigestPopOrder(t *testing.T) {
	a, b := NewRSB(4), NewRSB(4)
	a.Push(0x100)
	a.Push(0x200)
	b.Push(0x200)
	b.Push(0x100)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest blind to RSB order")
	}

	// Same live state reached with and without wraparound.
	c, d := NewRSB(4), NewRSB(4)
	for i := 1; i <= 6; i++ {
		c.Push(uint64(i) * 0x100) // wraps: live = 600,500,400,300
	}
	for i := 3; i <= 6; i++ {
		d.Push(uint64(i) * 0x100)
	}
	if c.StateDigest() != d.StateDigest() {
		t.Fatal("digest depends on dead slots or wrap position")
	}

	// Popping changes the digest (depth is part of the state).
	before := c.StateDigest()
	if _, ok := c.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if c.StateDigest() == before {
		t.Fatal("digest blind to a pop")
	}
}

func TestPHTDigest(t *testing.T) {
	a, b := NewPHT(10), NewPHT(10)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("fresh PHTs digest differently")
	}
	a.Update(0x400000, 0, true)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest blind to a counter update")
	}
	b.Update(0x400000, 0, true)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("identical update sequences digest differently")
	}
}

func TestBHBDigest(t *testing.T) {
	a, b := &BHB{}, &BHB{}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("fresh BHBs digest differently")
	}
	a.Record(0x400000, 0x500000)
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest blind to recorded history")
	}
	a.Clear()
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("cleared BHB digests differently from fresh")
	}
}

// TestPHTDigestMatchesBytewise: the one-multiply fold per counter equals
// fnv1a's byte-by-byte fold, on random counter states.
func TestPHTDigestMatchesBytewise(t *testing.T) {
	p8 := uint64(1)
	for i := 0; i < 8; i++ {
		p8 *= fnvPrime
	}
	if p8 != fnvPrime8 {
		t.Fatalf("fnvPrime8 = %#x, want fnvPrime^8 = %#x", uint64(fnvPrime8), p8)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := NewPHT(1 + rng.Intn(12))
		for i := range p.counters {
			p.counters[i] = uint8(rng.Intn(4))
		}
		want := uint64(fnvOffset)
		for _, c := range p.counters {
			want = fnv1a(want, uint64(c))
		}
		if got := p.StateDigest(); got != want {
			t.Fatalf("trial %d (%d counters): StateDigest %#x, byte-wise %#x", trial, len(p.counters), got, want)
		}
	}
}
