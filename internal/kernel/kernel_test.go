package kernel

import (
	"runtime"
	"testing"

	"phantom/internal/mem"
	"phantom/internal/uarch"
)

func bootTest(t *testing.T, seed int64) *Kernel {
	t.Helper()
	k, err := Boot(uarch.Zen2(), Config{Seed: seed, NoiseLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootPlacesImageInSlot(t *testing.T) {
	k := bootTest(t, 1)
	if k.ImageBase != SlotBase(k.ImageSlot) {
		t.Fatalf("image base %#x not at slot %d", k.ImageBase, k.ImageSlot)
	}
	if k.ImageSlot < 0 || k.ImageSlot >= KernelSlots {
		t.Fatalf("slot %d out of range", k.ImageSlot)
	}
	// Rebooting with a different seed moves the kernel (with very high
	// probability across a few seeds).
	moved := false
	for s := int64(2); s < 6; s++ {
		if bootTest(t, s).ImageSlot != k.ImageSlot {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("KASLR produced identical slots for five seeds")
	}
}

func TestPublishedGadgetOffsets(t *testing.T) {
	k := bootTest(t, 1)
	if off := k.SymbolOffset("getpid_site"); off != GetpidSiteOff {
		t.Errorf("getpid_site at %#x, want %#x", off, GetpidSiteOff)
	}
	if off := k.SymbolOffset("fdget_pos"); off != FdgetPosOff {
		t.Errorf("fdget_pos at %#x, want %#x", off, FdgetPosOff)
	}
	if off := k.SymbolOffset("disclosure_gadget"); off != DisclosureGadgetOff {
		t.Errorf("disclosure_gadget at %#x, want %#x", off, DisclosureGadgetOff)
	}
}

func TestGetpidSyscall(t *testing.T) {
	k := bootTest(t, 1)
	pid, err := k.Syscall(SysGetpid)
	if err != nil {
		t.Fatal(err)
	}
	if pid != 1234 {
		t.Fatalf("getpid = %d", pid)
	}
	// Repeat to confirm sysret restored state correctly.
	pid, err = k.Syscall(SysGetpid)
	if err != nil || pid != 1234 {
		t.Fatalf("second getpid = %d, %v", pid, err)
	}
}

func TestReadvSyscallCompletes(t *testing.T) {
	k := bootTest(t, 2)
	// RSI flows into R12 and the call path; must complete regardless of
	// the (garbage) pointer since the disclosure load happens only
	// transiently.
	if _, err := k.Syscall(SysReadv, 0, 0xdead000); err != nil {
		t.Fatal(err)
	}
}

func TestMDSSyscallInBounds(t *testing.T) {
	k := bootTest(t, 3)
	if _, err := k.Syscall(SysMDSRead, 5, 0); err != nil {
		t.Fatal(err)
	}
	// Out-of-bounds index is architecturally rejected (no fault).
	if _, err := k.Syscall(SysMDSRead, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCovertSyscallCompletes(t *testing.T) {
	k := bootTest(t, 4)
	if _, err := k.Syscall(SysCovertBranch, 0, 0x1234000); err != nil {
		t.Fatal(err)
	}
}

func TestNopSyscall(t *testing.T) {
	k := bootTest(t, 5)
	if _, err := k.Syscall(SysNop); err != nil {
		t.Fatal(err)
	}
}

func TestPhysmapMapsAllPhysicalMemory(t *testing.T) {
	k := bootTest(t, 1)
	m := k.M
	// Any physical address below PhysBytes is readable through physmap in
	// kernel mode, non-executable, and inaccessible from user mode.
	pa := uint64(0x1234000)
	va := k.PhysmapVA(pa)
	got, f := m.KernelAS.Translate(va, mem.AccessRead, false)
	if f != nil || got != pa {
		t.Fatalf("physmap translate: %#x, %v", got, f)
	}
	if _, f := m.KernelAS.Translate(va, mem.AccessFetch, false); f == nil {
		t.Fatal("physmap is executable")
	}
	if _, f := m.KernelAS.Translate(va, mem.AccessRead, true); f == nil {
		t.Fatal("physmap accessible from user mode")
	}
	// Beyond installed memory: unmapped.
	if _, f := m.KernelAS.Translate(k.PhysmapVA(k.M.Phys.Size()), mem.AccessRead, false); f == nil {
		t.Fatal("physmap extends past physical memory")
	}
}

func TestKernelTextProtection(t *testing.T) {
	k := bootTest(t, 1)
	// Kernel text not user-accessible.
	if _, f := k.M.KernelAS.Translate(k.Symbol("getpid_site"), mem.AccessFetch, true); f == nil {
		t.Fatal("kernel text fetchable from user mode")
	}
	// But fetchable in kernel mode.
	if _, f := k.M.KernelAS.Translate(k.Symbol("getpid_site"), mem.AccessFetch, false); f != nil {
		t.Fatalf("kernel text not fetchable in kernel mode: %v", f)
	}
}

func TestSlotMath(t *testing.T) {
	for _, slot := range []int{0, 1, 487} {
		base := SlotBase(slot)
		got, err := SlotOf(base)
		if err != nil || got != slot {
			t.Fatalf("SlotOf(SlotBase(%d)) = %d, %v", slot, got, err)
		}
	}
	if _, err := SlotOf(KernelRegionBase + 17); err == nil {
		t.Fatal("unaligned base accepted")
	}
	if _, err := SlotOf(SlotBase(KernelSlots)); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestAllocUserHugeIsRandomized(t *testing.T) {
	pas := make(map[uint64]bool)
	for s := int64(0); s < 6; s++ {
		k := bootTest(t, s)
		pa, err := k.AllocUserHuge(0x200000000)
		if err != nil {
			t.Fatal(err)
		}
		if pa%mem.HugePageSize != 0 {
			t.Fatalf("unaligned huge pa %#x", pa)
		}
		pas[pa] = true
	}
	if len(pas) < 3 {
		t.Fatalf("huge page placement barely randomized: %d distinct over 6 boots", len(pas))
	}
}

func TestSecretReadableViaKernel(t *testing.T) {
	k := bootTest(t, 1)
	b, err := k.M.KernelAS.Read8(k.SecretVA)
	if err != nil {
		t.Fatal(err)
	}
	if b != k.Secret[0] {
		t.Fatalf("secret mismatch: %#x vs %#x", b, k.Secret[0])
	}
}

func TestUserCannotTouchSecret(t *testing.T) {
	k := bootTest(t, 1)
	if _, f := k.M.KernelAS.Translate(k.SecretVA, mem.AccessRead, true); f == nil {
		t.Fatal("user mode can read the kernel secret")
	}
}

// TestSparseImageMatchesPaddedImage pins the sparse kernel image: boot
// writes only the code, over an int3 fill, yet every text byte read
// through the kernel's page tables equals the padded image, zero-extended
// to the text size. Seeds 397 and 565 boot into the first and last KASLR
// slots.
func TestSparseImageMatchesPaddedImage(t *testing.T) {
	for _, c := range []struct {
		seed int64
		slot int
	}{{397, 0}, {565, KernelSlots - 1}, {29, -1}} {
		k := bootTest(t, c.seed)
		if c.slot >= 0 && k.ImageSlot != c.slot {
			t.Fatalf("seed %d booted slot %d, want %d", c.seed, k.ImageSlot, c.slot)
		}
		img := buildImage(k.ImageBase)
		want := make([]byte, ImageTextSize)
		copy(want, img.MustBytes())
		for off := uint64(0); off < ImageTextSize; off += mem.PageSize {
			pa, f := k.M.KernelAS.Translate(k.ImageBase+off, mem.AccessRead, false)
			if f != nil {
				t.Fatal(f)
			}
			got, _ := k.M.Phys.Window(pa, mem.PageSize)
			for i := range got {
				if got[i] != want[off+uint64(i)] {
					t.Fatalf("slot %d: text byte %#x = %#x, padded image has %#x",
						k.ImageSlot, off+uint64(i), got[i], want[off+uint64(i)])
				}
			}
		}
		if b, _ := k.M.KernelAS.Read8(k.Symbol("getpid_site") - 1); b != 0xcc {
			t.Errorf("slot %d: gap byte before getpid_site = %#x, want int3", k.ImageSlot, b)
		}
		if b, _ := k.M.KernelAS.Read8(img.PC()); b != 0 {
			t.Errorf("slot %d: byte after the last ret = %#x, want 0", k.ImageSlot, b)
		}
	}
}

// TestBootAllocBudget guards boot's cost: a boot that materialized the
// int3-padded text again (about 25 MB) would fail here, not in a
// benchmark someone has to read.
func TestBootAllocBudget(t *testing.T) {
	const boots, budget = 5, 4e6 // bytes per boot; a sparse boot takes about 0.45 MB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < boots; i++ {
		bootTest(t, int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / boots; per > budget {
		t.Fatalf("a boot allocates %.1f MB, budget %.0f MB", float64(per)/1e6, budget/1e6)
	}
}
