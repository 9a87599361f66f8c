package kernel_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"phantom/internal/core"
	"phantom/internal/kernel"
	"phantom/internal/uarch"
)

// roundResult is everything one attack round lets a caller observe.
type roundResult struct {
	Probes              []int
	HugePA, DataPA      uint64
	Cycle               uint64
	Perf                any
	Debug               any
	Caches, TLBs        [][2]uint64
	BTB, RSB, PHT       uint64
	SyscallRAX, Secret0 uint64
}

// attackRound is one short Section 7 round on k: an I-cache prime set
// and a huge-page L2 prime set, each probed around getpid, readv and the
// covert syscall after a user-trained prediction at the getpid site (on
// parts whose BTB aliases across privileges), plus mapped data.
func attackRound(t *testing.T, k *kernel.Kernel) roundResult {
	t.Helper()
	var r roundResult
	var err error
	m := k.M
	ipp, err := core.NewIPrimeProbe(k, 0x7fb000000000, 29)
	if err != nil {
		t.Fatal(err)
	}
	if r.HugePA, err = k.AllocUserHuge(0x7f4000000000); err != nil {
		t.Fatal(err)
	}
	dpp := core.NewDPrimeProbe(m, 0x7f4000000000, 0xbe0)
	if err := k.MapUserData(0x7f5100000000, 3*4096); err != nil {
		t.Fatal(err)
	}
	r.DataPA = k.Alloc.AllocSeq(4096)
	a, err := core.NewAttack(k)
	if err != nil && k.M.Prof.Vendor == uarch.AMD {
		t.Fatal(err)
	}
	for i, nr := range []uint64{kernel.SysGetpid, kernel.SysReadv, kernel.SysCovertBranch} {
		ipp.Prime()
		dpp.Prime()
		if a != nil {
			victim := k.ImageBase + kernel.GetpidSiteOff
			if err := a.InjectPrediction(victim, k.ImageBase+0x5000+29<<6); err != nil {
				t.Fatal(err)
			}
		}
		if r.SyscallRAX, err = k.Syscall(nr, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		r.Probes = append(r.Probes, ipp.Probe(), dpp.Probe())
	}
	if r.Secret0, err = k.M.KernelAS.Read64(k.SecretVA); err != nil {
		t.Fatal(err)
	}
	r.Cycle, r.Perf, r.Debug = m.Cycle, m.Perf, m.Debug
	r.Caches = [][2]uint64{
		{m.Hier.L1I.Hits, m.Hier.L1I.Misses}, {m.Hier.L1D.Hits, m.Hier.L1D.Misses},
		{m.Hier.L2.Hits, m.Hier.L2.Misses}, {m.Uop.Hits, m.Uop.Misses},
	}
	r.TLBs = [][2]uint64{{m.ITLB.Hits, m.ITLB.Misses}, {m.DTLB.Hits, m.DTLB.Misses}}
	r.BTB, r.RSB, r.PHT = m.BTB.StateDigest(), m.RSB.StateDigest(), m.PHT.StateDigest()
	return r
}

// TestRebootEqualsBoot: on every profile, a kernel booted and dirtied
// (an attack round with its training pages, a huge page and mapped
// data, MSR writes, a run under a context cancelled mid-boot), then
// rebooted at another seed onto the same machine, equals Boot of that
// seed on a new machine: layout, symbols, secret and allocator, and then
// one identical attack round's results, clock, counters, cache and TLB
// statistics and predictor digests.
func TestRebootEqualsBoot(t *testing.T) {
	for _, p := range uarch.All() {
		t.Run(p.Name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			dirty, err := kernel.Boot(p, kernel.Config{Seed: 3, KPTI: true, NoiseLevel: 1, Context: ctx})
			if err != nil {
				t.Fatal(err)
			}
			attackRound(t, dirty)
			dirty.M.WriteMSRSuppressBPOnNonBr(true)
			dirty.M.WriteMSRAutoIBRS(!p.SupportsAutoIBRS)
			dirty.M.MSR.IBPBOnKernelEntry = true
			cancel()
			if _, err := dirty.Syscall(kernel.SysGetpid); !errors.Is(err, context.Canceled) {
				t.Fatalf("syscall under a cancelled context: %v", err)
			}

			cfg := kernel.Config{Seed: 11, NoiseLevel: 1}
			got, err := kernel.Reboot(dirty.M, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.M != dirty.M {
				t.Fatal("Reboot built a new machine for the profile and memory size the old one was built for")
			}
			want, err := kernel.Boot(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			type layout struct {
				ImageBase, PhysmapBase, SecretVA uint64
				ImageSlot, PhysmapSlot           int
				Sym                              map[string]uint64
				Secret                           []byte
				Seq                              uint64
				Huge                             uint64
			}
			lay := func(k *kernel.Kernel) layout {
				huge, err := k.Alloc.AllocRandomHuge()
				if err != nil {
					t.Fatal(err)
				}
				return layout{k.ImageBase, k.PhysmapBase, k.SecretVA, k.ImageSlot, k.PhysmapSlot,
					k.Sym, k.Secret, k.Alloc.AllocSeq(5 * 4096), huge}
			}
			if g, w := lay(got), lay(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("rebooted layout %+v\nbooted layout %+v", g, w)
			}
			if g, w := attackRound(t, got), attackRound(t, want); !reflect.DeepEqual(g, w) {
				t.Fatalf("attack round on the rebooted kernel %+v\non a booted kernel %+v", g, w)
			}
		})
	}
}

// TestRebootBuildsForAnotherConfiguration: a machine built for another
// profile, or for another memory size, is not reset but replaced.
func TestRebootBuildsForAnotherConfiguration(t *testing.T) {
	zen2 := uarch.Zen2()
	k, err := kernel.Boot(zen2, kernel.Config{Seed: 1, PhysBytes: 8 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *uarch.Profile
		mem  uint64
	}{
		{"another memory size", zen2, 64 << 30},
		{"another profile pointer", uarch.Zen2(), 8 << 30},
	} {
		got, err := kernel.Reboot(k.M, c.p, kernel.Config{Seed: 1, PhysBytes: c.mem})
		if err != nil {
			t.Fatal(err)
		}
		if got.M == k.M || got.M.Prof != c.p || got.M.Phys.Size() != c.mem {
			t.Errorf("%s: Reboot gave machine %p (%s, %d bytes), the old one %p", c.name, got.M, got.M.Prof, got.M.Phys.Size(), k.M)
		}
	}
}
