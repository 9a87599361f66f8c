package kernel

import (
	"context"
	"fmt"
	"math/rand"

	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
	"phantom/internal/uarch"
)

// Config controls a simulated system boot.
type Config struct {
	// PhysBytes is the installed physical memory (default 8 GiB). The
	// paper's Table 5 machines have 8 GB (Zen 1) and 64 GB (Zen 2).
	PhysBytes uint64
	// Seed drives KASLR slot selection, noise, and allocation randomness.
	Seed int64
	// KPTI enables kernel page-table isolation costs (TLB flushes and a
	// CR3 switch on every transition). Phantom works with KPTI enabled —
	// unlike the prefetch attacks of [40]. It defaults off, matching the
	// paper's AMD targets (KPTI is a Meltdown mitigation and AMD parts
	// run without it).
	KPTI bool
	// NoiseLevel scales microarchitectural noise; 1 is calibrated
	// default, 0 makes runs deterministic (tests).
	NoiseLevel float64
	// Context is the run the machine belongs to, bound at boot (see
	// pipeline.Machine.Bind): once it is done, every attack on this
	// kernel fails with its error at the next machine run. Nil boots an
	// unbound machine.
	Context context.Context
}

func (c Config) withDefaults() Config {
	if c.PhysBytes == 0 {
		c.PhysBytes = 8 << 30
	}
	return c
}

// Kernel is a booted simulated system: machine plus the kernel's
// randomized layout and ground-truth secrets, which experiment code uses
// only for verification (the attacks must rediscover them).
type Kernel struct {
	M *pipeline.Machine

	ImageBase   uint64
	ImageSlot   int
	PhysmapBase uint64
	PhysmapSlot int

	// Sym maps image symbols (entry, getpid_site, fdget_call_site,
	// disclosure_gadget, mds, mds_call_site, mds_disclosure, covert,
	// covert_branch_site, covert_exec_gadget, ...) to absolute VAs.
	Sym map[string]uint64

	// Secret is the 4096-byte random kernel secret the MDS exploit leaks
	// (ground truth for accuracy accounting); SecretVA is its kernel
	// address.
	Secret   []byte
	SecretVA uint64

	// Alloc hands out physical frames for user mappings.
	Alloc *mem.FrameAllocator

	cfg Config
	rng *rand.Rand
}

// Physical placement of the kernel image.
const imagePhysBase = uint64(0x2000000)

// Boot creates a machine with the given profile and installs the kernel:
// KASLR-randomized image, physmap direct map, syscall entry, and kernel
// data. Each Boot models one reboot — fresh randomization, cold caches and
// predictors.
func Boot(p *uarch.Profile, cfg Config) (*Kernel, error) {
	return Reboot(nil, p, cfg)
}

// Reboot is Boot onto m, a machine an earlier boot left behind: m is
// reset when it was built for p and cfg's memory size, else (or when m
// is nil) a new machine is built (pipeline.Renew). Either way the kernel
// equals what Boot gives, so a sweep of reboots builds one machine per
// worker and configuration instead of one per reboot. The kernel that
// last ran on m is gone: nothing may touch it again.
func Reboot(m *pipeline.Machine, p *uarch.Profile, cfg Config) (*Kernel, error) {
	cfg = cfg.withDefaults()
	m = pipeline.Renew(m, p, cfg.PhysBytes, cfg.Seed)
	m.Noise.Level = cfg.NoiseLevel
	m.KPTI = cfg.KPTI
	m.Bind(cfg.Context)
	// The threat model (Section 3) assumes all state-of-the-art defenses:
	// parts supporting AutoIBRS boot with it enabled. (Intel's privilege
	// separation is built into its BTB tags: btb.Scheme.PrivilegeInTag.)
	m.MSR.AutoIBRS = p.SupportsAutoIBRS
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))

	k := &Kernel{
		M:           m,
		ImageSlot:   rng.Intn(KernelSlots),
		PhysmapSlot: rng.Intn(PhysmapSlots),
		cfg:         cfg,
		rng:         rng,
	}
	k.ImageBase = SlotBase(k.ImageSlot)
	k.PhysmapBase = PhysmapSlotBase(k.PhysmapSlot)

	// Kernel text: supervisor, read+exec. Only the code is written: the
	// image is its segments over an int3 fill up to the last byte emitted,
	// and the text pages past that read zero.
	asm := buildImage(k.ImageBase)
	segs, err := asm.Segments()
	if err != nil {
		return nil, fmt.Errorf("kernel: assembling image: %w", err)
	}
	span := asm.PC() - k.ImageBase
	textLen := (span + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if textLen > ImageTextSize {
		return nil, fmt.Errorf("kernel: image text %#x exceeds budget %#x", textLen, ImageTextSize)
	}
	if err := m.KernelAS.Map(k.ImageBase, imagePhysBase, ImageTextSize, mem.PermRead|mem.PermExec); err != nil {
		return nil, err
	}
	m.Phys.FillInt3(imagePhysBase, span)
	for _, s := range segs {
		m.Phys.WriteBytes(imagePhysBase+(s.Addr-k.ImageBase), s.Bytes)
	}

	// Kernel data: supervisor, read+write, NX.
	dataVA := k.ImageBase + ImageTextSize
	dataPA := imagePhysBase + ImageTextSize
	if err := m.KernelAS.Map(dataVA, dataPA, ImageDataSize, mem.PermRead|mem.PermWrite); err != nil {
		return nil, err
	}

	// Physmap: the direct map of all physical memory — present, writable,
	// and non-executable, which is why breaking its KASLR needs P2's
	// transient load rather than P1's transient fetch (Section 7.2).
	if err := m.KernelAS.AddLinearRange(k.PhysmapBase, 0, cfg.PhysBytes, mem.PermRead|mem.PermWrite, true); err != nil {
		return nil, err
	}

	m.SyscallEntry = k.ImageBase // "entry" is at offset 0

	// Symbols.
	k.Sym = make(map[string]uint64)
	for _, s := range asm.Symbols() {
		k.Sym[s.Name] = s.Addr
	}

	// Kernel data init.
	m.Phys.Write64(dataPA+dataPidOff, 1234)
	m.Phys.Write64(dataPA+dataArrayLenOff, ArrayLen)
	for i := 0; i < ArrayLen; i++ {
		m.Phys.Write8(dataPA+dataArrayOff+uint64(i), byte(i))
	}

	// The secret the MDS exploit leaks: 4096 random bytes in kernel data.
	k.Secret = make([]byte, 4096)
	rng.Read(k.Secret)
	k.SecretVA = dataVA + dataScratchOff
	m.Phys.WriteBytes(dataPA+dataScratchOff, k.Secret)

	// Physical allocator for user memory, above the kernel image, with
	// some fragmentation reserved to randomize hugepage placement.
	k.Alloc = mem.NewFrameAllocator(m.Phys, imagePhysBase+ImageSize, rng)
	k.Alloc.Reserve(0, imagePhysBase+ImageSize)
	frag := rng.Intn(100) // paper §7.4: 0-99 hugepages of re-randomization
	for i := 0; i < frag; i++ {
		if _, err := k.Alloc.AllocRandomHuge(); err != nil {
			break
		}
	}

	return k, nil
}

// Symbol returns the absolute address of an image symbol, panicking on
// unknown names (programming error).
func (k *Kernel) Symbol(name string) uint64 {
	v, ok := k.Sym[name]
	if !ok {
		panic(fmt.Sprintf("kernel: unknown symbol %q", name))
	}
	return v
}

// SymbolOffset returns a symbol's offset from the image base.
func (k *Kernel) SymbolOffset(name string) uint64 {
	return k.Symbol(name) - k.ImageBase
}

// ArrayBase returns the kernel VA of the Listing 4 array, which the MDS
// exploit indexes out of bounds.
func (k *Kernel) ArrayBase() uint64 {
	return k.ImageBase + ImageTextSize + dataArrayOff
}

// MapUserCode maps user-executable pages at va and writes blob.
func (k *Kernel) MapUserCode(va uint64, blob []byte) error {
	return k.mapUser(va, blob, mem.PermRead|mem.PermExec|mem.PermUser)
}

// MapUserData maps user-writable pages covering [va, va+size).
func (k *Kernel) MapUserData(va, size uint64) error {
	base := va &^ (mem.PageSize - 1)
	end := (va + size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	pa := k.Alloc.AllocSeq(end - base)
	return k.M.UserAS.Map(base, pa, end-base, mem.PermRead|mem.PermWrite|mem.PermUser)
}

func (k *Kernel) mapUser(va uint64, blob []byte, perm mem.Perm) error {
	base := va &^ (mem.PageSize - 1)
	end := (va + uint64(len(blob)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	pa := k.Alloc.AllocSeq(end - base)
	if err := k.M.UserAS.Map(base, pa, end-base, perm); err != nil {
		return err
	}
	return k.M.UserAS.WriteBytes(va, blob)
}

// AllocUserHuge maps one 2 MiB transparent huge page at va, placed at a
// randomized physical address the attacker does not know, and returns that
// physical address as ground truth for verification (Table 5's experiment
// rediscovers it through physmap).
func (k *Kernel) AllocUserHuge(va uint64) (uint64, error) {
	if va%mem.HugePageSize != 0 {
		return 0, fmt.Errorf("kernel: AllocUserHuge at unaligned %#x", va)
	}
	pa, err := k.Alloc.AllocRandomHuge()
	if err != nil {
		return 0, err
	}
	if err := k.M.UserAS.MapHuge(va, pa, mem.HugePageSize, mem.PermRead|mem.PermWrite|mem.PermUser); err != nil {
		return 0, err
	}
	return pa, nil
}

// PhysmapVA returns the kernel direct-map address of a physical address.
func (k *Kernel) PhysmapVA(pa uint64) uint64 { return k.PhysmapBase + pa }

// Syscall runs a system call from user mode with the given arguments,
// starting and ending at a small user trampoline. It returns the RAX
// value after return.
func (k *Kernel) Syscall(nr uint64, args ...uint64) (uint64, error) {
	m := k.M
	if k.Sym["__user_syscall_stub"] == 0 {
		if err := k.installSyscallStub(); err != nil {
			return 0, err
		}
	}
	argRegs := []int{isa.RDI, isa.RSI, isa.RDX}
	if len(args) > len(argRegs) {
		return 0, fmt.Errorf("kernel: too many syscall args")
	}
	m.Regs[isa.RAX] = nr
	for i, a := range args {
		m.Regs[argRegs[i]] = a
	}
	if err := m.RunAt(k.Sym["__user_syscall_stub"], 4000).Expect(pipeline.StopHalt); err != nil {
		return 0, fmt.Errorf("kernel: syscall %d did not complete: %w", nr, err)
	}
	return m.Regs[isa.RAX], nil
}

// userStubVA is where the syscall trampoline lives in user space.
const userStubVA = uint64(0x00007f0000000000)

func (k *Kernel) installSyscallStub() error {
	a := isa.NewAssembler(userStubVA)
	a.Syscall()
	a.Hlt()
	blob, err := a.Bytes()
	if err != nil {
		return err
	}
	if err := k.MapUserCode(userStubVA, blob); err != nil {
		return err
	}
	k.Sym["__user_syscall_stub"] = userStubVA
	return nil
}
