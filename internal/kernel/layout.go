// Package kernel builds the simulated operating system the exploits
// attack: a Linux-like kernel image placed at a KASLR-randomized base, a
// physmap (direct map of all physical memory, non-executable) at a
// randomized base, a syscall interface, and the code-gadget inventory the
// paper's exploits rely on — the getpid() nop site of Listing 1, the
// __fdget_pos() call site and disclosure gadget of Listings 2/3, an
// MDS-style gadget module per Listing 4, and a covert-channel module with
// hijackable direct branches (Section 6.4).
package kernel

import "fmt"

// Virtual layout constants (matching x86-64 Linux).
const (
	// KernelRegionBase is the start of the kernel text mapping region;
	// KASLR places the image at KernelRegionBase + slot*KernelSlotStride.
	KernelRegionBase = uint64(0xffffffff80000000)
	// KernelSlotStride is the KASLR alignment of the kernel image (2 MiB).
	KernelSlotStride = uint64(0x200000)
	// KernelSlots is the number of possible image locations; the paper
	// (citing TagBleed [38]) uses 488.
	KernelSlots = 488

	// PhysmapRegionBase is the start of the direct-map region.
	PhysmapRegionBase = uint64(0xffff888000000000)
	// PhysmapSlotStride is the randomization granularity of the direct
	// map base (1 GiB).
	PhysmapSlotStride = uint64(0x40000000)
	// PhysmapSlots is the number of possible physmap bases; the paper
	// (again citing [38]) uses 25600.
	PhysmapSlots = 25600
)

// Image geometry.
const (
	// ImageTextSize covers the assembled kernel text including the
	// paper's gadget offsets (the largest is __fdget_pos at 0x41db60).
	ImageTextSize = uint64(0x500000)
	// ImageDataSize is the r/w kernel data area mapped right after text.
	ImageDataSize = uint64(0x40000)
	// ImageSize is the whole mapped image footprint.
	ImageSize = ImageTextSize + ImageDataSize
)

// Gadget offsets within the kernel image, matching the paper where it
// names them.
const (
	// GetpidSiteOff is the Listing 1 site: the 5-byte nop at the top of
	// __task_pid_nr_ns(), "found at kernel image offset 0xf6520".
	GetpidSiteOff = uint64(0xf6520)
	// FdgetPosOff is the Listing 2 site, __fdget_pos(), "found at kernel
	// image offset 0x41db60".
	FdgetPosOff = uint64(0x41db60)
	// DisclosureGadgetOff is the Listing 3 physmap disclosure gadget
	// (mov r12, [r12+0xbe0]), "found at kernel image offset 0x41da52".
	DisclosureGadgetOff = uint64(0x41da52)
	// MDSModuleOff is where the Listing 4 read_data() module loads.
	MDSModuleOff = uint64(0x2a0000)
	// MDSDisclosureOff is the P3 disclosure gadget used by the MDS
	// exploit (shift the leaked byte into a reload-buffer offset and
	// load).
	MDSDisclosureOff = uint64(0x2a0800)
	// CovertModuleOff is the Section 6.4 covert-channel module with its
	// hijackable direct branch.
	CovertModuleOff = uint64(0x2b0000)
	// KModuleProbeOff is the Section 6.2 probe module (nops + ret) whose
	// address plays K in the BTB collision experiments.
	KModuleProbeOff = uint64(0x300000)
)

// Data-area offsets (from ImageBase + ImageTextSize).
const (
	dataPidOff       = uint64(0x0)     // the getpid return value
	dataArrayLenOff  = uint64(0x100)   // *array_length for Listing 4
	dataArrayOff     = uint64(0x1000)  // array[] base for Listing 4
	dataKStackTopOff = uint64(0x24000) // top of the 16 KiB kernel stack
	dataScratchOff   = uint64(0x30000)
)

// ArrayLen is the architectural bound of the Listing 4 array.
const ArrayLen = 256

// ArrayOff is the image-relative offset of the Listing 4 array — like the
// gadget offsets, public knowledge an attacker reads from the distribution
// kernel binary.
const ArrayOff = ImageTextSize + dataArrayOff

// Syscall numbers.
const (
	SysReadv  = 19 // triggers the Listing 2/3 path
	SysGetpid = 39 // triggers the Listing 1 path
	// Custom "kernel module" entry points, exposed as syscalls.
	SysMDSRead      = 500 // Listing 4: read_data(user_index, reload_kva)
	SysCovertBranch = 501 // Section 6.4 module: direct branches, arg in RSI
	SysNop          = 502 // minimal syscall for baselines
)

// SlotBase returns the image base of a KASLR slot.
func SlotBase(slot int) uint64 {
	return KernelRegionBase + uint64(slot)*KernelSlotStride
}

// PhysmapSlotBase returns the physmap base of a randomization slot.
func PhysmapSlotBase(slot int) uint64 {
	return PhysmapRegionBase + uint64(slot)*PhysmapSlotStride
}

// SlotOf inverts SlotBase; it returns an error for a base that is not a
// valid slot address.
func SlotOf(base uint64) (int, error) {
	if base < KernelRegionBase || (base-KernelRegionBase)%KernelSlotStride != 0 {
		return 0, fmt.Errorf("kernel: %#x is not a KASLR slot base", base)
	}
	slot := int((base - KernelRegionBase) / KernelSlotStride)
	if slot >= KernelSlots {
		return 0, fmt.Errorf("kernel: %#x beyond slot range", base)
	}
	return slot, nil
}
