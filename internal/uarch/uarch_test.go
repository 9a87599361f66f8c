package uarch

import "testing"

func TestAllProfilesWellFormed(t *testing.T) {
	for _, p := range All() {
		if p.Name == "" {
			t.Fatal("unnamed profile")
		}
		if p.NewScheme == nil || p.NewScheme() == nil {
			t.Fatalf("%s: no BTB scheme", p)
		}
		if p.MemLatency <= 0 {
			t.Fatalf("%s: bad memory latency", p)
		}
		// The paper's µop-cache finding: always 64 8-way sets, virtually
		// indexed by the low 12 address bits (Section 5.1).
		if p.UopCache.Sets != 64 || p.UopCache.Ways != 8 {
			t.Fatalf("%s: µop cache %dx%d, want 64x8", p, p.UopCache.Sets, p.UopCache.Ways)
		}
		// The Phantom window never exceeds the Spectre window.
		if p.PhantomWindow.ExecUops > p.SpectreWindow.ExecUops ||
			p.PhantomWindow.DecodeInsts > p.SpectreWindow.DecodeInsts {
			t.Fatalf("%s: Phantom window exceeds Spectre window", p)
		}
		if p.DecodeResteerLatency >= p.ExecResteerLatency {
			t.Fatalf("%s: frontend resteer not cheaper than backend", p)
		}
	}
}

func TestCapabilityMatrix(t *testing.T) {
	cases := []struct {
		p         *Profile
		execWin   bool // Phantom reaches execute
		suppress  bool
		autoIBRS  bool
		straight  bool
		vendorAMD bool
	}{
		{Zen1(), true, false, false, true, true},
		{Zen2(), true, true, false, true, true},
		{Zen3(), false, true, false, true, true},
		{Zen4(), false, true, true, true, true},
		{Intel9(), false, false, false, false, false},
		{Intel13(), false, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.p.PhantomWindow.ExecUops > 0; got != c.execWin {
			t.Errorf("%s: exec window %v, want %v", c.p, got, c.execWin)
		}
		if c.p.SupportsSuppressBPOnNonBr != c.suppress {
			t.Errorf("%s: SuppressBPOnNonBr support %v", c.p, c.p.SupportsSuppressBPOnNonBr)
		}
		if c.p.SupportsAutoIBRS != c.autoIBRS {
			t.Errorf("%s: AutoIBRS support %v", c.p, c.p.SupportsAutoIBRS)
		}
		if c.p.StraightLineSpec != c.straight {
			t.Errorf("%s: SLS %v", c.p, c.p.StraightLineSpec)
		}
		if (c.p.Vendor == AMD) != c.vendorAMD {
			t.Errorf("%s: vendor %v", c.p, c.p.Vendor)
		}
	}
}

func TestIntelPrivilegeTaggedBTB(t *testing.T) {
	for _, mk := range []func() *Profile{Intel9, Intel11, Intel12, Intel13} {
		p := mk()
		if !p.NewScheme().PrivilegeInTag {
			t.Errorf("%s: BTB not privilege-tagged", p)
		}
	}
	for _, mk := range []func() *Profile{Zen1, Zen2, Zen3, Zen4} {
		p := mk()
		if p.NewScheme().PrivilegeInTag {
			t.Errorf("%s: AMD BTB should not be privilege-tagged", p)
		}
	}
}

func TestIndirectVictimQuirks(t *testing.T) {
	if Intel9().IndirectVictim != IndirectVictimNone {
		t.Error("intel9 should show no jmp*-victim speculation")
	}
	if Intel12().IndirectVictim != IndirectVictimFetchOnly {
		t.Error("intel12 should fetch-only at jmp* victims")
	}
	if Zen2().IndirectVictim != IndirectVictimFull {
		t.Error("zen parts should have full jmp*-victim speculation")
	}
}

func TestByName(t *testing.T) {
	for _, alias := range []string{"zen1", "zen2", "zen3", "zen4", "intel9", "intel11", "intel12", "intel13"} {
		if _, err := ByName(alias); err != nil {
			t.Errorf("ByName(%q): %v", alias, err)
		}
	}
	if p, err := ByName("Zen 2"); err != nil || p.Name != "Zen 2" {
		t.Errorf("ByName by full name: %v, %v", p, err)
	}
	if _, err := ByName("386"); err == nil {
		t.Error("bogus name accepted")
	}
}

func TestProfilesAreIndependent(t *testing.T) {
	a, b := Zen2(), Zen2()
	a.MemLatency = 1
	if b.MemLatency == 1 {
		t.Fatal("profile constructors share state")
	}
}
