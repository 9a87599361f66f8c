// Package btb models the branch prediction structures of the simulated
// CPUs: the Branch Target Buffer with per-microarchitecture XOR-folded
// index and tag functions, the Return Stack Buffer, and a pattern history
// table for conditional direction prediction.
//
// The BTB is the heart of Phantom: entries record the *branch class of the
// training instruction* along with the target, and the frontend consumes
// predictions before decoding the instruction at the lookup address, so an
// aliased entry imposes the trainer's semantics on arbitrary victim bytes
// (paper Sections 2.1, 5.2). Cross-privilege aliasing is governed by the
// index/tag functions, which for Zen 3/4 are the XOR functions the paper
// reverse engineers in Section 6.2 / Figure 7.
package btb

import (
	"math/bits"

	"phantom/internal/gf2"
)

// Scheme computes the BTB set index and tag for a branch-source virtual
// address. kernel reports the privilege mode of the executing context.
type Scheme struct {
	// SchemeName identifies the scheme in diagnostics.
	SchemeName string
	// IndexForms are linear forms over VA bits; form i produces index bit i.
	IndexForms []gf2.Vec
	// TagForms are additional linear forms folded into the tag. Together
	// with the low VA bits they decide whether two same-index addresses
	// share an entry.
	TagForms []gf2.Vec
	// PrivilegeInTag mixes the privilege mode into the tag, preventing any
	// cross-privilege reuse — the behaviour the paper observed on Intel
	// parts ("the Intel processors we tested do not re-use a user-injected
	// prediction in kernel mode", Section 6).
	PrivilegeInTag bool
}

// verbatimTagBits is how many low VA bits every scheme includes verbatim
// in the tag (the paper's Zen 3 analysis pins the low 12 bits, which take
// part in entry selection directly).
const verbatimTagBits = 12

// Index returns the BTB set index of va: the XOR-folded high-bit
// functions (the part the paper reverse engineers, which governs
// cross-address aliasing) concatenated with the branch's address bits
// [11:4], so that dense code spreads across sets as on real parts. The
// extra bits lie inside the low-12 window that every aliasing experiment
// pins (and that the tag also contains verbatim), so they never change
// whether two aliasing-candidate addresses collide.
func (s *Scheme) Index(va uint64) uint32 {
	var idx uint32
	for i, f := range s.IndexForms {
		idx |= uint32(parity(va&uint64(f))) << uint(i)
	}
	return idx | uint32((va>>4)&0xff)<<uint(len(s.IndexForms))
}

// Tag returns the BTB tag of va in the given privilege mode.
func (s *Scheme) Tag(va uint64, kernel bool) uint64 {
	tag := va & (1<<verbatimTagBits - 1)
	for i, f := range s.TagForms {
		tag |= uint64(parity(va&uint64(f))) << uint(verbatimTagBits+i)
	}
	if s.PrivilegeInTag && kernel {
		tag |= 1 << 63
	}
	return tag
}

// Sets returns the number of BTB sets the index addresses (function bits
// plus the eight low PC bits).
func (s *Scheme) Sets() int { return 1 << uint(len(s.IndexForms)+8) }

// Collides reports whether two (address, privilege) branch sources share a
// BTB entry slot under this scheme. This is the ground truth the reverse
// engineering experiments rediscover through the microarchitectural
// channel.
func (s *Scheme) Collides(va1 uint64, k1 bool, va2 uint64, k2 bool) bool {
	return s.Index(va1) == s.Index(va2) && s.Tag(va1, k1) == s.Tag(va2, k2)
}

func parity(x uint64) uint {
	return uint(bits.OnesCount64(x) & 1)
}

// form builds a gf2.Vec from bit positions.
func form(bitsList ...int) gf2.Vec {
	var v gf2.Vec
	for _, b := range bitsList {
		v |= 1 << uint(b)
	}
	return v
}

// Zen34Functions returns the twelve cross-privilege index functions of AMD
// Zen 3/4 exactly as published in Figure 7 of the paper:
//
//	f0 = b47⊕b35⊕b23         f1 = b47⊕b36⊕b24⊕b12
//	f2 = b47⊕b37⊕b25⊕b13     f3 = b47⊕b38⊕b26⊕b14
//	f4 = b47⊕b39⊕b26⊕b13     f5 = b47⊕b39⊕b27⊕b15
//	f6 = b47⊕b40⊕b28⊕b16     f7 = b47⊕b41⊕b29⊕b17
//	f8 = b47⊕b42⊕b30⊕b18     f9 = b47⊕b43⊕b31⊕b19
//	f10 = b47⊕b44⊕b32⊕b20    f11 = b47⊕b45⊕b33⊕b21
func Zen34Functions() []gf2.Vec {
	return []gf2.Vec{
		form(47, 35, 23),
		form(47, 36, 24, 12),
		form(47, 37, 25, 13),
		form(47, 38, 26, 14),
		form(47, 39, 26, 13),
		form(47, 39, 27, 15),
		form(47, 40, 28, 16),
		form(47, 41, 29, 17),
		form(47, 42, 30, 18),
		form(47, 43, 31, 19),
		form(47, 44, 32, 20),
		form(47, 45, 33, 21),
	}
}

// Zen34TagOverlap returns the partially-overlapping tag functions the paper
// infers on Zen 3/4: b12 pairs with b16 and b13 with b17 ("whenever b13 is
// toggled ... b17 is toggled as well"), which is why collisions must be
// created by flipping the *higher* bits of each function.
//
// A third function covers the bits absent from every published form (b22,
// b34, b46). The paper notes that some functions eluded discovery
// ("potentially because they do not involve bit 47" / "use address bits we
// did not consider"); something must cover these bits on real parts,
// because Table 3's Zen 3 exploit distinguishes kernel images two
// 2 MiB slots apart (addresses differing only in b22) with 100% accuracy.
// Both published collision masks leave b22/b34/b46 untouched, so the extra
// function is consistent with every published observation.
func Zen34TagOverlap() []gf2.Vec {
	return []gf2.Vec{
		form(12, 16),
		form(13, 17),
		form(22, 34, 46),
	}
}

// NewZen34Scheme returns the Zen 3 / Zen 4 BTB scheme. Both published
// collision masks hold:
//
//	K ⊕ 0xffffbff800000000  (flips b47 and b35..b45)
//	K ⊕ 0xffff8003ff800000  (flips b47 and b23..b33)
func NewZen34Scheme(name string) *Scheme {
	return &Scheme{
		SchemeName: name,
		IndexForms: Zen34Functions(),
		TagForms:   Zen34TagOverlap(),
	}
}

// NewZen12Scheme returns the Zen 1 / Zen 2 BTB scheme used by this
// simulator: a three-way XOR fold for the index,
//
//	idx_i = b(12+i) ⊕ b(24+i) ⊕ b(36+i)   i = 0..11
//
// and a two-way fold for the upper tag,
//
//	tag_j = b(12+j) ⊕ b(30+j)             j = 0..11.
//
// These are simulator stand-ins consistent with the Retbleed-era finding
// that user/kernel collisions on Zen 1/2 exist within a handful of bit
// flips: K ⊕ 0x800820020000 (flips b47, b35, b29, b17) collides, which a
// brute-force search over <=6 flipped bits finds quickly — unlike Zen 3/4,
// whose masks flip 12 bits and defeat that search (Section 6.2).
func NewZen12Scheme(name string) *Scheme {
	idx := make([]gf2.Vec, 12)
	tag := make([]gf2.Vec, 12)
	for i := 0; i < 12; i++ {
		idx[i] = form(12+i, 24+i, 36+i)
		tag[i] = form(12+i, 30+i)
	}
	return &Scheme{
		SchemeName: name,
		IndexForms: idx,
		TagForms:   tag,
	}
}

// Zen12CollisionMask is a user/kernel aliasing mask for the Zen 1/2 scheme
// (see NewZen12Scheme).
const Zen12CollisionMask = uint64(0x800820020000)

// Zen34CollisionMaskA and Zen34CollisionMaskB are the two collision masks
// the paper publishes for Zen 3 (and confirms on Zen 4).
const (
	Zen34CollisionMaskA = uint64(0xffffbff800000000)
	Zen34CollisionMaskB = uint64(0xffff8003ff800000)
)

// NewIntelScheme returns the scheme used for the simulated Intel parts: a
// two-way XOR fold with the privilege mode mixed into the tag, so
// user-mode training can never hit a kernel-mode lookup regardless of
// eIBRS — matching the paper's observation that exploitation on Intel is
// complicated by privilege-dependent BTB addressing.
func NewIntelScheme(name string) *Scheme {
	idx := make([]gf2.Vec, 12)
	for i := 0; i < 12; i++ {
		idx[i] = form(12+i, 25+i)
	}
	tag := make([]gf2.Vec, 8)
	for j := 0; j < 8; j++ {
		tag[j] = form(12+j, 21+j, 38+j)
	}
	return &Scheme{
		SchemeName:     name,
		IndexForms:     idx,
		TagForms:       tag,
		PrivilegeInTag: true,
	}
}
