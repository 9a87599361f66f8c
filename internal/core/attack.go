package core

import (
	"errors"
	"fmt"

	"phantom/internal/btb"
	"phantom/internal/isa"
	"phantom/internal/kernel"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
)

// Attack is the user-mode attacker context against a booted kernel: it
// owns the cross-privilege aliasing mask (reverse engineered in
// Section 6.2 — derived here from the same linear algebra, see
// btb.CrossPrivAliasMask), the user pages holding training branches, and
// the fault-catching training loop.
type Attack struct {
	K *kernel.Kernel

	// CrossMask aliases a kernel branch source to a user address:
	// userVA = kernelVA ^ CrossMask.
	CrossMask uint64

	trainPages map[uint64]bool // user pages already mapped for training
	stubVA     uint64
}

// errNoCrossPriv is NewAttack's failure on a BTB scheme that admits no
// cross-privilege aliasing.
var errNoCrossPriv = errors.New("no cross-privilege BTB aliasing")

// NewAttack prepares an attacker context. It fails on profiles whose BTB
// scheme admits no cross-privilege aliasing (the Intel parts), matching
// the paper's finding that exploitation there is blocked by
// privilege-dependent BTB addressing.
func NewAttack(k *kernel.Kernel) (*Attack, error) {
	maskVal, ok := btb.CrossPrivAliasMask(k.M.BTB.Scheme())
	if !ok {
		return nil, fmt.Errorf("core: %w on %s", errNoCrossPriv, k.M.Prof)
	}
	return &Attack{K: k, CrossMask: maskVal, trainPages: make(map[uint64]bool)}, nil
}

// TrainSourceFor returns the user-space address whose BTB slot aliases the
// given kernel branch source.
func (a *Attack) TrainSourceFor(kernelVA uint64) uint64 {
	return kernelVA ^ a.CrossMask
}

// InjectPrediction plants a user-trained jmp* prediction that a kernel
// victim instruction at kernelVictim will consume: it writes a `jmp* rdi`
// at the aliasing user address, executes it with RDI=target, and catches
// the page fault that the (kernel-address) target fetch raises — the
// Section 6.2 training technique of Wikner and Razavi [73].
func (a *Attack) InjectPrediction(kernelVictim, target uint64) error {
	m := a.K.M
	u := a.TrainSourceFor(kernelVictim)
	if err := a.ensureTrainPage(u); err != nil {
		return err
	}
	if err := m.UserAS.WriteBytes(u, isa.EncJmpInd(isa.RDI)); err != nil {
		return err
	}
	m.Regs[isa.RDI] = target
	// The branch itself retires (training the BTB); the fetch of the
	// kernel target faults, which the attacker's signal handler absorbs.
	if err := m.RunAt(u, 8).Expect(pipeline.StopFault); err != nil {
		return fmt.Errorf("core: training run did not fault as expected: %w", err)
	}
	return nil
}

// ensureTrainPage maps (once) the user page that contains u.
func (a *Attack) ensureTrainPage(u uint64) error {
	page := u &^ (mem.PageSize - 1)
	if a.trainPages[page] {
		return nil
	}
	blob := make([]byte, mem.PageSize)
	for i := range blob {
		blob[i] = 0xcc
	}
	if err := a.K.MapUserCode(page, blob); err != nil {
		return err
	}
	a.trainPages[page] = true
	return nil
}

// Syscall issues a system call (the victim invocation step of every
// exploit).
func (a *Attack) Syscall(nr uint64, args ...uint64) error {
	_, err := a.K.Syscall(nr, args...)
	return err
}

// NominalGHz converts simulated cycles to seconds for reporting: the
// modeled parts run at ~3 GHz.
const NominalGHz = 3.0

// CyclesToSeconds converts a cycle count to wall-clock seconds at the
// nominal clock.
func CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / (NominalGHz * 1e9)
}
