package phantom_test

import (
	"context"
	"fmt"

	"phantom"
)

// Boot a simulated AMD Zen 2 system and break its kernel image KASLR with
// the P1 transient-fetch primitive (Table 3 of the paper).
func ExampleSystem_BreakImageKASLR() {
	sys, err := phantom.NewSystem(phantom.Zen2, phantom.SystemConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	res, err := sys.BreakImageKASLR()
	if err != nil {
		panic(err)
	}
	fmt.Println("correct:", res.Correct)
	fmt.Println("matches ground truth:", res.Guess == sys.KernelImageBase())
	// Output:
	// correct: true
	// matches ground truth: true
}

// Leak the kernel's planted secret through the Listing 4 MDS gadget
// (Section 7.4), running the whole Section 7 chain first.
func ExampleSystem_LeakKernelMemory() {
	sys, err := phantom.NewSystem(phantom.Zen2, phantom.SystemConfig{Seed: 2})
	if err != nil {
		panic(err)
	}
	secretVA, secret := sys.SecretAddr()
	res, err := sys.LeakKernelMemory(secretVA, 32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("accuracy: %.0f%%\n", res.AccuracyPct)
	fmt.Println("exact:", string(res.Leaked[0]) == string(secret[0]))
	// Output:
	// accuracy: 100%
	// exact: true
}

// Measure how far a decoder-detectable misprediction advances on Zen 2
// versus Zen 4 (two cells of Table 1).
func ExampleRunTable1() {
	for _, arch := range []phantom.Microarch{phantom.Zen2, phantom.Zen4} {
		tb, err := phantom.RunTable1(arch, phantom.Table1Options{Seed: 1, Trials: 3})
		if err != nil {
			panic(err)
		}
		// Cell: jmp* training on a non-branch victim.
		for _, row := range tb.Cells {
			for _, c := range row {
				if c.Training == "jmp*" && c.Victim == "non-branch" {
					fmt.Printf("%s: %v\n", arch, c.Reach)
				}
			}
		}
	}
	// Output:
	// zen2: IF+ID+EX
	// zen4: IF+ID
}

// The mitigation picture of Section 6.3 on Zen 4: AutoIBRS refuses to
// steer by cross-privilege predictions yet still prefetches their targets.
func ExampleRunMitigations() {
	m, err := phantom.RunMitigations(context.Background(), phantom.Zen4, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("AutoIBRS leaves IF:", m.AutoIBRSLeavesIF)
	fmt.Println("AutoIBRS blocks ID:", m.AutoIBRSBlocksID)
	// Output:
	// AutoIBRS leaves IF: true
	// AutoIBRS blocks ID: true
}
