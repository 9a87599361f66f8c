// Package uarch defines the microarchitecture profiles of the simulated
// CPUs: AMD Zen 1 through Zen 4 and Intel 9th/11th/12th/13th generation
// (P-cores), the eight parts the paper evaluates.
//
// A profile fixes cache geometry, latencies, the BTB indexing scheme,
// and — crucially for Phantom — how far a wrong-path control flow
// advances through the decoupled frontend before a resteer takes effect,
// plus which mitigation MSRs the part supports. The
// experiments never read these capabilities directly; they rediscover them
// through the same I-cache / µop-cache / D-cache observation channels the
// paper uses, and the per-experiment tests assert that what the channels
// *measure* matches what the paper reports.
package uarch

import (
	"fmt"

	"phantom/internal/btb"
	"phantom/internal/cache"
)

// Vendor distinguishes the two modeled CPU vendors.
type Vendor uint8

// Vendors.
const (
	AMD Vendor = iota
	Intel
)

func (v Vendor) String() string {
	if v == AMD {
		return "AMD"
	}
	return "Intel"
}

// IndirectVictimBehavior captures the Intel-specific anomaly the paper
// reports for victim jmp* instructions ("our results for some of our Intel
// parts do not indicate ID, and sometimes not even IF, in certain scenarios
// where the victim instruction is jmp*", Section 6).
type IndirectVictimBehavior uint8

// Behaviors for Phantom speculation at an indirect-branch victim.
const (
	IndirectVictimFull      IndirectVictimBehavior = iota // speculation proceeds as usual
	IndirectVictimFetchOnly                               // target is fetched but never enters decode
	IndirectVictimNone                                    // no observable speculation
)

// Window bounds how far a wrong-path control flow advances before a
// resteer takes effect, per pipeline stage.
type Window struct {
	// FetchLines is the number of 64-byte lines of wrong-path code the
	// fetch unit brings into the I-cache.
	FetchLines int
	// DecodeInsts is the number of wrong-path instructions that reach the
	// decoder (and hence the µop cache).
	DecodeInsts int
	// ExecUops is the number of wrong-path µops dispatched to the backend.
	// Memory loads among them leave D-cache footprints. Zero means the
	// wrong path is killed before dispatch.
	ExecUops int
}

// Profile is a full microarchitecture description.
type Profile struct {
	Name   string
	Vendor Vendor

	// Cache configs.
	L1I, L1D, L2 cache.Config
	UopCache     cache.Config
	MemLatency   int

	// Predictors.
	NewScheme func() *btb.Scheme
	BTBWays   int
	RSBDepth  int
	PHTBits   int

	// Resteer penalties in cycles.
	DecodeResteerLatency int // frontend-issued resteer (Phantom window end)
	ExecResteerLatency   int // backend-issued resteer (Spectre window end)

	// PhantomWindow bounds decoder-detectable (frontend-resteered)
	// speculation; SpectreWindow bounds execute-resolved speculation.
	PhantomWindow Window
	SpectreWindow Window

	// IndirectVictim captures the per-part jmp*-victim anomaly.
	IndirectVictim IndirectVictimBehavior

	// StraightLineSpec enables speculation past unpredicted
	// execute-dependent branches (returns), the AMD behaviour reported as
	// Spectre-SLS (Table 1 footnote c).
	StraightLineSpec bool

	// Mitigation support.
	SupportsSuppressBPOnNonBr bool // MSR 0xC00110E3 bit (Zen 2+; not Zen 1, Section 8.1)
	SupportsAutoIBRS          bool // Zen 4
}

// MSRState is the mutable mitigation configuration of one machine.
type MSRState struct {
	SuppressBPOnNonBr bool
	AutoIBRS          bool
	// IBPBOnKernelEntry issues an IBPB (full predictor flush in this
	// model) on every user-to-kernel transition — the heavyweight option
	// of Section 8.2.
	IBPBOnKernelEntry bool
	// WaitForDecode is the paper's hypothetical in-depth mitigation
	// (Section 8.1): "stop predictions until the decoding of the branch
	// source has finished, thereby preventing all branch type
	// confusions." No shipping part implements it; this simulator does,
	// so its cost and coverage can be measured. With the bit set,
	// decoder-detectable mispredictions produce no speculation at all
	// (the frontend validates the branch type before steering), at the
	// price of a steering bubble on every predicted branch.
	WaitForDecode bool
}

// WaitForDecodeBubble is the per-predicted-steer delay WaitForDecode
// imposes: the frontend cannot redirect until the source's decode
// completes.
const WaitForDecodeBubble = 3

func (p *Profile) String() string {
	return fmt.Sprintf("%s %s", p.Vendor, p.Name)
}

// common cache geometry shared by the modeled parts: 32 KiB 8-way L1s,
// 64-set 8-way µop cache ("we find that these caches always have 64 8-way
// sets, selected by the lower 12 bits of the instruction's virtual
// address", Section 5.1).
func caches(l2KiB, l1Lat, l2Lat int) (l1i, l1d, l2, uop cache.Config) {
	l1i = cache.Config{Name: "L1I", Sets: 64, Ways: 8, HitLatency: l1Lat}
	l1d = cache.Config{Name: "L1D", Sets: 64, Ways: 8, HitLatency: l1Lat}
	l2 = cache.Config{Name: "L2", Sets: l2KiB * 1024 / cache.LineSize / 8, Ways: 8, HitLatency: l2Lat}
	uop = cache.Config{Name: "uop", Sets: 64, Ways: 8, HitLatency: 1}
	return
}

func zenBase(name string, scheme func() *btb.Scheme) *Profile {
	l1i, l1d, l2, uop := caches(512, 4, 14)
	return &Profile{
		Name:                 name,
		Vendor:               AMD,
		L1I:                  l1i,
		L1D:                  l1d,
		L2:                   l2,
		UopCache:             uop,
		MemLatency:           160,
		NewScheme:            scheme,
		BTBWays:              2,
		RSBDepth:             32,
		PHTBits:              12,
		DecodeResteerLatency: 6,
		ExecResteerLatency:   18,
		SpectreWindow:        Window{FetchLines: 8, DecodeInsts: 64, ExecUops: 48},
		StraightLineSpec:     true,
	}
}

// Zen1 returns the AMD Zen (Ryzen 5 1600X in the paper) profile: full
// Phantom reach — transient fetch, decode, and a short execute window; no
// SuppressBPOnNonBr support.
func Zen1() *Profile {
	p := zenBase("Zen 1", func() *btb.Scheme { return btb.NewZen12Scheme("zen1") })
	p.PhantomWindow = Window{FetchLines: 2, DecodeInsts: 8, ExecUops: 8}
	return p
}

// Zen2 returns the AMD Zen 2 (EPYC 7252 in the paper) profile: full
// Phantom reach, SuppressBPOnNonBr supported (stops transient execution at
// non-branch victims but not IF/ID — Observation O4).
func Zen2() *Profile {
	p := zenBase("Zen 2", func() *btb.Scheme { return btb.NewZen12Scheme("zen2") })
	p.PhantomWindow = Window{FetchLines: 2, DecodeInsts: 8, ExecUops: 6}
	p.SupportsSuppressBPOnNonBr = true
	return p
}

// Zen3 returns the AMD Zen 3 (Ryzen 5 5600G in the paper) profile:
// Phantom reaches fetch and decode only; cross-privilege BTB collisions
// require the Figure 7 XOR functions.
func Zen3() *Profile {
	p := zenBase("Zen 3", func() *btb.Scheme { return btb.NewZen34Scheme("zen3") })
	p.PhantomWindow = Window{FetchLines: 2, DecodeInsts: 8, ExecUops: 0}
	p.SupportsSuppressBPOnNonBr = true
	return p
}

// Zen4 returns the AMD Zen 4 (Ryzen 7 7700X in the paper) profile: like
// Zen 3 plus AutoIBRS, which blocks cross-privilege prediction *use* but
// not the instruction-fetch prefetch of the predicted target
// (Observation O5).
func Zen4() *Profile {
	p := zenBase("Zen 4", func() *btb.Scheme { return btb.NewZen34Scheme("zen4") })
	p.PhantomWindow = Window{FetchLines: 2, DecodeInsts: 8, ExecUops: 0}
	p.SupportsSuppressBPOnNonBr = true
	p.SupportsAutoIBRS = true
	return p
}

func intelBase(name string, ivb IndirectVictimBehavior) *Profile {
	l1i, l1d, l2, uop := caches(1024, 5, 16)
	return &Profile{
		Name:                 name,
		Vendor:               Intel,
		L1I:                  l1i,
		L1D:                  l1d,
		L2:                   l2,
		UopCache:             uop,
		MemLatency:           170,
		NewScheme:            func() *btb.Scheme { return btb.NewIntelScheme(name) },
		BTBWays:              2,
		RSBDepth:             16,
		PHTBits:              12,
		DecodeResteerLatency: 6,
		ExecResteerLatency:   20,
		PhantomWindow:        Window{FetchLines: 2, DecodeInsts: 6, ExecUops: 0},
		SpectreWindow:        Window{FetchLines: 8, DecodeInsts: 64, ExecUops: 48},
		IndirectVictim:       ivb,
	}
}

// Intel9 returns the Intel 9th generation profile (transient fetch and
// decode; no observable speculation at jmp* victims).
func Intel9() *Profile { return intelBase("Core 9th gen", IndirectVictimNone) }

// Intel11 returns the Intel 11th generation profile.
func Intel11() *Profile { return intelBase("Core 11th gen", IndirectVictimNone) }

// Intel12 returns the Intel 12th generation (P-core) profile: jmp* victims
// show transient fetch but not decode.
func Intel12() *Profile { return intelBase("Core 12th gen (P)", IndirectVictimFetchOnly) }

// Intel13 returns the Intel 13th generation (P-core) profile.
func Intel13() *Profile { return intelBase("Core 13th gen (P)", IndirectVictimFetchOnly) }

// All returns the eight evaluated profiles in the paper's presentation
// order.
func All() []*Profile {
	return []*Profile{
		Zen1(), Zen2(), Zen3(), Zen4(),
		Intel9(), Intel11(), Intel12(), Intel13(),
	}
}

// ByName returns the profile with the given name (case-sensitive match on
// Profile.Name or the compact aliases zen1..zen4, intel9..intel13).
func ByName(name string) (*Profile, error) {
	aliases := map[string]func() *Profile{
		"zen1": Zen1, "zen2": Zen2, "zen3": Zen3, "zen4": Zen4,
		"intel9": Intel9, "intel11": Intel11, "intel12": Intel12, "intel13": Intel13,
	}
	if f, ok := aliases[name]; ok {
		return f(), nil
	}
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("uarch: unknown profile %q", name)
}
