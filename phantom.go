// Package phantom is a full-system reproduction of "Phantom: Exploiting
// Decoder-detectable Mispredictions" (Wikner, Trujillo, Razavi — MICRO
// 2023) on a cycle-level CPU simulator written in pure Go.
//
// The paper shows that recent AMD and Intel CPUs consult the branch
// predictor before the current instruction is decoded, so a Branch Target
// Buffer entry planted by a *training* instruction imposes its branch
// type and target on arbitrary *victim* bytes at an aliasing address.
// The decoder catches the mismatch and resteers the frontend, but by then
// the mispredicted target has been fetched (IF), usually decoded (ID),
// and on AMD Zen 1/2 even executed far enough to issue one memory load
// (EX). The paper builds observation channels for each stage, reverse
// engineers the cross-privilege BTB indexing of Zen 3/4, and turns the
// resulting primitives into KASLR breaks and an arbitrary kernel-memory
// leak.
//
// Real Phantom needs real silicon. This package substitutes a detailed
// microarchitectural simulator — decoupled fetch/decode pipeline, BTB
// with the published XOR index functions, RSB, PHT, µop cache, two-level
// cache hierarchy, virtual memory, and a Linux-like kernel with
// randomized image and physmap — and re-runs every experiment of the
// paper against it. Attacks observe the machine only the way a real
// attacker could: timing of their own fetches and loads, their own cache
// state, unprivileged performance counters, and syscall results.
//
// # Quick start
//
//	sys, err := phantom.NewSystem(phantom.Zen2, phantom.SystemConfig{Seed: 1})
//	if err != nil { ... }
//	res, err := sys.BreakImageKASLR()
//	fmt.Printf("kernel image at %#x (correct: %v, %.2fs simulated)\n",
//	        res.Guess, res.Correct, res.Seconds)
//
// The Run* functions reproduce the paper's tables and figures; see
// EXPERIMENTS.md for the measured-vs-published comparison.
package phantom

import (
	"context"
	"fmt"

	"phantom/internal/core"
	"phantom/internal/kernel"
	"phantom/internal/uarch"
)

// Microarch names a simulated CPU model.
type Microarch string

// The eight microarchitectures the paper evaluates.
const (
	Zen1    Microarch = "zen1"
	Zen2    Microarch = "zen2"
	Zen3    Microarch = "zen3"
	Zen4    Microarch = "zen4"
	Intel9  Microarch = "intel9"
	Intel11 Microarch = "intel11"
	Intel12 Microarch = "intel12"
	Intel13 Microarch = "intel13"
)

// AllMicroarchs returns every supported model in the paper's order.
func AllMicroarchs() []Microarch {
	return []Microarch{Zen1, Zen2, Zen3, Zen4, Intel9, Intel11, Intel12, Intel13}
}

// AMDMicroarchs returns the AMD Zen models, the paper's exploitation
// targets.
func AMDMicroarchs() []Microarch {
	return []Microarch{Zen1, Zen2, Zen3, Zen4}
}

// ModelName returns the CPU model string the paper's tables use for this
// microarchitecture (e.g. "AMD Ryzen 5 1600X").
func (m Microarch) ModelName() string {
	switch m {
	case Zen1:
		return "AMD Ryzen 5 1600X"
	case Zen2:
		return "AMD EPYC 7252"
	case Zen3:
		return "AMD Ryzen 5 5600G"
	case Zen4:
		return "AMD Ryzen 7 7700X"
	case Intel9:
		return "Intel Core 9th gen"
	case Intel11:
		return "Intel Core 11th gen"
	case Intel12:
		return "Intel Core 12th gen (P)"
	case Intel13:
		return "Intel Core 13th gen (P)"
	}
	return string(m)
}

func (m Microarch) profile() (*uarch.Profile, error) {
	return uarch.ByName(string(m))
}

// SystemConfig controls booting a simulated system.
type SystemConfig struct {
	// Seed drives all randomness: KASLR placement, physical allocation,
	// noise. The same seed reproduces the same run exactly.
	Seed int64
	// PhysBytes is installed physical memory; 0 means 8 GiB.
	PhysBytes uint64
	// NoiseLevel scales microarchitectural noise; 0 keeps the paper-
	// calibrated default of 1. Use Deterministic to disable noise.
	NoiseLevel float64
	// Deterministic disables all injected noise (unit-test conditions).
	Deterministic bool
	// KPTI enables kernel page-table isolation costs.
	KPTI bool
	// Context, when non-nil, is the run the system belongs to: once it
	// is done, every attack on the system fails with its error at the
	// next machine run. Nil means unbounded.
	Context context.Context
}

// System is one booted machine-plus-kernel, the subject of the attacks.
type System struct {
	arch Microarch
	k    *kernel.Kernel
}

// NewSystem boots a simulated system. Each boot re-randomizes KASLR, so
// repeated boots model the paper's "each time rebooting the machine".
func NewSystem(arch Microarch, cfg SystemConfig) (*System, error) {
	p, err := arch.profile()
	if err != nil {
		return nil, err
	}
	// Deterministic wins over NoiseLevel: it promises unit-test conditions,
	// so any configured noise is dropped, not merely defaulted.
	noise := cfg.NoiseLevel
	if cfg.Deterministic {
		noise = 0
	} else if noise == 0 {
		noise = 1
	}
	k, err := kernel.Boot(p, kernel.Config{
		Seed:       cfg.Seed,
		PhysBytes:  cfg.PhysBytes,
		NoiseLevel: noise,
		KPTI:       cfg.KPTI,
		Context:    cfg.Context,
	})
	if err != nil {
		return nil, err
	}
	return &System{arch: arch, k: k}, nil
}

// Arch returns the system's microarchitecture.
func (s *System) Arch() Microarch { return s.arch }

// NoiseLevel reports the effective injected-noise scale this system
// booted with: 0 under Deterministic (whatever NoiseLevel was set to),
// the calibrated 1 when neither field is set, else the configured value.
func (s *System) NoiseLevel() float64 { return s.k.M.Noise.Level }

// KernelImageBase returns the ground-truth randomized image base. Attack
// code never reads it; it exists so callers can verify exploit output.
func (s *System) KernelImageBase() uint64 { return s.k.ImageBase }

// PhysmapBase returns the ground-truth randomized physmap base (for
// verification).
func (s *System) PhysmapBase() uint64 { return s.k.PhysmapBase }

// SecretAddr returns the kernel address of the 4096-byte secret planted
// for the leak experiments, with its ground-truth contents.
func (s *System) SecretAddr() (uint64, []byte) {
	sec := append([]byte(nil), s.k.Secret...)
	return s.k.SecretVA, sec
}

// Cycles returns the simulated cycle counter.
func (s *System) Cycles() uint64 { return s.k.M.Cycle }

// KASLRResult is the outcome of a derandomization attack.
type KASLRResult struct {
	Guess   uint64
	Correct bool
	Seconds float64 // simulated time
}

// BreakImageKASLR runs the Table 3 exploit on this system: derandomizing
// the kernel image base with the P1 transient-fetch primitive.
func (s *System) BreakImageKASLR() (*KASLRResult, error) {
	r, err := core.BreakImageKASLR(s.k, core.ImageKASLRConfig{})
	if err != nil {
		return nil, err
	}
	return &KASLRResult{Guess: r.Guess, Correct: r.Correct, Seconds: r.Seconds}, nil
}

// BreakPhysmapKASLR runs the Table 4 exploit (P2, AMD Zen 1/2 only),
// given the image base recovered by BreakImageKASLR.
func (s *System) BreakPhysmapKASLR(imageBase uint64) (*KASLRResult, error) {
	r, err := core.BreakPhysmapKASLR(s.k, core.PhysmapKASLRConfig{ImageBase: imageBase})
	if err != nil {
		return nil, err
	}
	return &KASLRResult{Guess: r.Guess, Correct: r.Correct, Seconds: r.Seconds}, nil
}

// FindPhysAddr runs the Table 5 experiment: recovering the physical
// address of an attacker-owned transparent huge page through physmap.
func (s *System) FindPhysAddr(imageBase, physmapBase uint64) (*KASLRResult, error) {
	r, _, err := core.FindPhysAddr(s.k, core.PhysAddrConfig{
		ImageBase:   imageBase,
		PhysmapBase: physmapBase,
	})
	if err != nil {
		return nil, err
	}
	return &KASLRResult{Guess: r.Guess, Correct: r.Correct, Seconds: r.Seconds}, nil
}

// LeakResult is the outcome of the Section 7.4 kernel-memory leak.
type LeakResult struct {
	// Image, Physmap and PhysAddr are the Section 7 chain steps the leak
	// ran first on this boot; it leaks through what they recovered. A
	// step an earlier one left without input is nil.
	Image, Physmap, PhysAddr *KASLRResult

	Leaked         []byte
	AccuracyPct    float64
	BytesPerSecond float64
	Seconds        float64
}

// LeakKernelMemory runs the Section 7.4 MDS-gadget exploit end to end on
// this system: it first recovers the image base, physmap base and the
// reload buffer's physical address with the Section 7 chain, then leaks
// n bytes starting at kva. A chain step can come up empty on an unlucky
// boot (the paper's own success rates are below 100%); the leak then
// cannot run, and LeakKernelMemory returns an error saying so together
// with a result reporting the steps that ran. Every other error comes
// with a nil result.
func (s *System) LeakKernelMemory(kva uint64, n int) (*LeakResult, error) {
	out := &LeakResult{}
	var err error
	if out.Image, err = s.BreakImageKASLR(); err != nil {
		return nil, err
	}
	if out.Physmap, err = s.BreakPhysmapKASLR(out.Image.Guess); err != nil {
		return nil, err
	}
	if out.Physmap.Guess == 0 {
		return out, fmt.Errorf("phantom: KASLR derandomization found no candidate on this boot (image=%#x, physmap=%#x)", out.Image.Guess, out.Physmap.Guess)
	}
	const hugeVA = uint64(0x7f5000000000)
	if _, err := s.k.AllocUserHuge(hugeVA); err != nil {
		return nil, err
	}
	pr, reloadPhys, err := core.FindPhysAddr(s.k, core.PhysAddrConfig{
		ImageBase:   out.Image.Guess,
		PhysmapBase: out.Physmap.Guess,
		HugeVA:      hugeVA,
	})
	if err != nil {
		return nil, err
	}
	out.PhysAddr = &KASLRResult{Guess: pr.Guess, Correct: pr.Correct, Seconds: pr.Seconds}
	if !pr.Correct {
		return out, fmt.Errorf("phantom: reload-buffer physical address not recovered")
	}
	r, err := core.LeakKernelMemory(s.k, kva, core.MDSLeakConfig{
		ImageBase:   out.Image.Guess,
		PhysmapBase: out.Physmap.Guess,
		ReloadPhys:  reloadPhys,
		HugeVA:      hugeVA,
		Bytes:       n,
	})
	if err != nil {
		return nil, err
	}
	out.Leaked = r.Leaked
	out.AccuracyPct = r.Accuracy.Percent()
	out.BytesPerSecond = r.BytesPerSecond
	out.Seconds = r.Seconds
	return out, nil
}
