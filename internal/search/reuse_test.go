package search

import (
	"context"
	"reflect"
	"testing"

	"phantom/internal/mem"
	"phantom/internal/uarch"
)

// freshDiff is runDiff with each leg on a machine of its own from
// pipeline.New: the reference that legs on a shared, reset machine must
// match.
func freshDiff(t *testing.T, p *Program) *Diff {
	t.Helper()
	on, err := runLeg(context.Background(), &rig{}, p, false)
	if err != nil {
		t.Fatal(err)
	}
	off, err := runLeg(context.Background(), &rig{}, p, true)
	if err != nil {
		t.Fatal(err)
	}
	return &Diff{
		On: on, Off: off,
		ArchDiverged: on.Arch != off.Arch,
		PredDiverged: on.PredDigest != off.PredDigest,
		CycleDelta:   int64(on.Cycles) - int64(off.Cycles),
	}
}

// TestSharedMachineMatchesFresh: on every profile, hundreds of programs
// diffed one after another on one shared machine, reset before every
// leg, diff exactly as on fresh machines, so no state leaks from a
// program into the next. A minimization on the shared machine, after
// all of them, returns the program a minimization starting from a new
// machine returns, and the shrunk program and each one-statement
// removal of it diff as on fresh machines.
func TestSharedMachineMatchesFresh(t *testing.T) {
	ctx := context.Background()
	var shared rig
	for _, prof := range uarch.All() {
		var found *Finding
		for it := 0; it < 220; it++ {
			p := Generate(prof.Name, deriveSeed(77, it))
			got, err := runDiff(ctx, &shared, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshDiff(t, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s program %d: shared machine diff\n%+v\nfresh machines\n%+v", prof.Name, it, got, want)
			}
			if fs := Classify(p, got); found == nil && len(fs) > 0 {
				found = &fs[0]
			}
		}
		if prof.Name != uarch.Zen2().Name {
			continue
		}
		if found == nil {
			t.Fatalf("%s: no finding to minimize", prof.Name)
		}
		got, err := minimize(ctx, &shared, found.Program, found.Category)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Minimize(found.Program, found.Category)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("minimized on the shared machine\n%+v\nfrom a new machine\n%+v", got, want)
		}
		cands := []*Program{got}
		for i := range got.Victim {
			c := got.clone()
			c.Victim = append(c.Victim[:i:i], c.Victim[i+1:]...)
			cands = append(cands, c)
		}
		for i := range got.Gadget {
			c := got.clone()
			c.Gadget = append(c.Gadget[:i:i], c.Gadget[i+1:]...)
			cands = append(cands, c)
		}
		for _, c := range cands {
			d, err := runDiff(ctx, &shared, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshDiff(t, c); !reflect.DeepEqual(d, want) {
				t.Fatalf("candidate %+v: shared machine diff\n%+v\nfresh machines\n%+v", c, d, want)
			}
		}
	}
}

// memDigestBytewise is the reference memDigest: every word read through
// Read64 and folded byte by byte.
func memDigestBytewise(l *lab) uint64 {
	h := uint64(fnvOffset)
	for _, pa := range l.dataPAs {
		for off := uint64(0); off < mem.PageSize; off += 8 {
			v := l.m.Phys.Read64(pa + off)
			for i := 0; i < 8; i++ {
				h ^= v & 0xff
				h *= fnvPrime
				v >>= 8
			}
		}
	}
	return h
}

// TestMemDigestMatchesBytewise: the page-at-a-time digest with its
// zero-word fold equals the byte-wise FNV-1a over the labs of generated
// programs after their victim runs, written pages included.
func TestMemDigestMatchesBytewise(t *testing.T) {
	p8 := uint64(1)
	for i := 0; i < 8; i++ {
		p8 *= fnvPrime
	}
	if p8 != fnvPrime8 {
		t.Fatalf("fnvPrime8 = %#x, want fnvPrime^8 = %#x", uint64(fnvPrime8), p8)
	}
	zero := uint64(fnvOffset) // the digest of the three data pages, all zero
	for i := 0; i < 3*mem.PageSize; i++ {
		zero *= fnvPrime
	}
	var r rig
	written := 0
	for it := 0; it < 1000; it++ {
		p := Generate("zen2", deriveSeed(5, it))
		l, err := buildLab(&r, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < max(p.Rounds, 1); i++ {
			if err := l.trainOnce(p); err != nil {
				t.Fatal(err)
			}
		}
		l.runVictim()
		want := memDigestBytewise(l)
		if got := l.memDigest(); got != want {
			t.Fatalf("program %d: memDigest %#x, byte-wise %#x", it, got, want)
		}
		if want != zero {
			written++
		}
	}
	t.Logf("%d of 1000 programs wrote their data pages", written)
	if written < 50 {
		t.Fatalf("only %d of 1000 programs wrote their data pages; the non-zero path went untested", written)
	}
}
