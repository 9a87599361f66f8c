// mitigation-audit evaluates the deployed and proposed Phantom
// mitigations on every AMD part (Sections 6.3 and 8):
//
//   - SuppressBPOnNonBr stops transient execution at non-branch victims
//     but leaves transient fetch and decode intact (Observation O4), is
//     unsupported on Zen 1, and does nothing for branch-instruction
//     victims;
//   - AutoIBRS (Zen 4) refuses to steer by cross-privilege predictions
//     but still prefetches their targets into the I-cache (Observation
//     O5), leaving the P1 KASLR break fully functional;
//   - a full-flush IBPB on kernel entry stops everything — at a
//     prohibitive syscall cost.
package main

import (
	"context"
	"fmt"
	"log"

	"phantom"
)

func main() {
	for _, arch := range phantom.AMDMicroarchs() {
		rep, err := phantom.RunMitigations(context.Background(), arch, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep)
	}

	// The O5 headline: image KASLR still breaks on Zen 4 with AutoIBRS on.
	sys, err := phantom.NewSystem(phantom.Zen4, phantom.SystemConfig{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.BreakImageKASLR()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Image KASLR on Zen 4 with AutoIBRS enabled: correct=%v (%.4fs sim)\n",
		res.Correct, res.Seconds)
}
