package btb

import "phantom/internal/gf2"

// constraintMatrix assembles the full set of linear forms two addresses
// must agree on to share a BTB slot under s, plus unit constraints pinning
// the low tag bits (which enter the tag verbatim and therefore can never
// be flipped in an aliasing mask).
func constraintMatrix(s *Scheme) *gf2.Matrix {
	m := gf2.NewMatrix(48)
	for _, f := range s.IndexForms {
		m.AddRow(f)
	}
	for _, f := range s.TagForms {
		m.AddRow(f)
	}
	for b := 0; b < verbatimTagBits; b++ {
		m.AddRow(gf2.Vec(1) << uint(b))
	}
	return m
}

// SamePrivAliasMask returns a nonzero XOR mask d such that va and va^d
// collide in the BTB within one privilege mode, with bit 47 clear so the
// aliased address stays on the same side of the canonical address split.
// ok is false when the scheme admits no such mask.
//
// Attackers use this to lay out the training snippet A and victim snippet
// B of the observation-channel experiments (Figure 4: h(A) = h(B)). The
// mask is solved once per scheme definition (derive); this returns it.
func SamePrivAliasMask(s *Scheme) (uint64, bool) {
	return s.derived.samePriv, s.derived.samePrivOK
}

// samePrivAliasMask solves SamePrivAliasMask by Gaussian elimination.
func samePrivAliasMask(s *Scheme) (uint64, bool) {
	m := constraintMatrix(s)
	m.AddRow(gf2.Vec(1) << 47) // forbid flipping the privilege half
	for _, v := range m.Nullspace() {
		if v != 0 {
			return uint64(v), true
		}
	}
	return 0, false
}

// CrossPrivAliasMask returns an XOR mask d with bit 47 set (extended
// through bits 63:48 for canonical sign extension) such that a kernel
// address K and the user address K^d collide in the BTB. ok is false when
// no such mask exists — notably on the Intel scheme, whose tags include
// the privilege mode, matching the paper's finding that user-injected
// predictions are not reused in kernel mode on Intel parts (Section 6).
//
// On the Zen 3/4 scheme this returns a 12-bit-flip mask equivalent to the
// published 0xffffbff800000000 / 0xffff8003ff800000 patterns. Like
// SamePrivAliasMask, it is solved once per scheme definition.
func CrossPrivAliasMask(s *Scheme) (uint64, bool) {
	return s.derived.crossPriv, s.derived.crossPrivOK
}

// crossPrivAliasMask solves CrossPrivAliasMask from the nullspace.
func crossPrivAliasMask(s *Scheme) (uint64, bool) {
	if s.PrivilegeInTag {
		return 0, false
	}
	basis := constraintMatrix(s).Nullspace()
	// Any nullspace element with b47 set works; combining two b47
	// elements clears it, so scan the basis first, then pairs.
	for _, v := range basis {
		if v&(1<<47) != 0 {
			return uint64(v) | 0xffff000000000000, true
		}
	}
	return 0, false
}
