package btb

import (
	"math/rand"
	"testing"

	"phantom/internal/gf2"
)

// randomScheme returns a random GF(2) scheme of the shape the modeled
// parts have: 12 index forms and 0–12 tag forms, each the XOR of one to
// four bits from b12–b47.
func randomScheme(rng *rand.Rand, privilegeInTag bool) *Scheme {
	forms := func(n int) []gf2.Vec {
		fs := make([]gf2.Vec, n)
		for i := range fs {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				fs[i] |= 1 << uint(12+rng.Intn(36))
			}
		}
		return fs
	}
	return derive(&Scheme{
		SchemeName:     "random",
		IndexForms:     forms(12),
		TagForms:       forms(rng.Intn(13)),
		PrivilegeInTag: privilegeInTag,
	})
}

// TestLaneTablesEqualParityForms pins the lane tables to the forms they
// are built from: for every constructor's scheme and 100 random ones,
// the table-driven Index and Tag equal the form-by-form parity reference
// on 10^5 random VAs in both privilege modes.
func TestLaneTablesEqualParityForms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schemes := []*Scheme{NewZen12Scheme("zen2"), NewZen34Scheme("zen3"), NewIntelScheme("intel")}
	for i := 0; i < 100; i++ {
		schemes = append(schemes, randomScheme(rng, i%2 == 1))
	}
	for i, s := range schemes {
		for n := 0; n < 100000; n++ {
			va := rng.Uint64()
			if got, want := s.Index(va), s.parityIndex(va); got != want {
				t.Fatalf("scheme %d (%s): Index(%#x) = %#x, parity forms give %#x", i, s.SchemeName, va, got, want)
			}
			for _, kernel := range []bool{false, true} {
				if got, want := s.Tag(va, kernel), s.parityTag(va, kernel); got != want {
					t.Fatalf("scheme %d (%s): Tag(%#x, %v) = %#x, parity forms give %#x", i, s.SchemeName, va, kernel, got, want)
				}
			}
		}
	}
}

// TestSchemeDefinitionsShared pins that the constructors build each
// definition's tables once: every Scheme of a definition, whatever its
// name, reads the same derived data, so a machine costs no table build.
func TestSchemeDefinitionsShared(t *testing.T) {
	for _, mk := range []func(string) *Scheme{NewZen12Scheme, NewZen34Scheme, NewIntelScheme} {
		a, b := mk("a"), mk("b")
		if a == b || a.derived != b.derived || a.SchemeName != "a" || b.SchemeName != "b" {
			t.Errorf("%s and %s: distinct names must share one definition's tables", a.SchemeName, b.SchemeName)
		}
	}
	if NewZen12Scheme("x").derived == NewZen34Scheme("x").derived {
		t.Error("two definitions share tables")
	}
}

// TestStoredAliasMasksEqualSolved pins that the stored masks are the
// ones the elimination solves for each definition.
func TestStoredAliasMasksEqualSolved(t *testing.T) {
	for _, s := range []*Scheme{NewZen12Scheme("zen2"), NewZen34Scheme("zen3"), NewIntelScheme("intel")} {
		same, sameOK := SamePrivAliasMask(s)
		cross, crossOK := CrossPrivAliasMask(s)
		wantSame, wantSameOK := samePrivAliasMask(s)
		wantCross, wantCrossOK := crossPrivAliasMask(s)
		if same != wantSame || sameOK != wantSameOK || cross != wantCross || crossOK != wantCrossOK {
			t.Errorf("%s: stored masks %#x/%v %#x/%v, solved %#x/%v %#x/%v",
				s.SchemeName, same, sameOK, cross, crossOK, wantSame, wantSameOK, wantCross, wantCrossOK)
		}
	}
}

func TestDeriveRejectsOverwideSchemes(t *testing.T) {
	for _, c := range []struct{ index, tag int }{{25, 0}, {12, 21}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d index and %d tag forms: derive did not panic", c.index, c.tag)
				}
			}()
			derive(&Scheme{IndexForms: make([]gf2.Vec, c.index), TagForms: make([]gf2.Vec, c.tag)})
		}()
	}
}
