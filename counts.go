package phantom

import "fmt"

// Count is the one declaration of an experiment's count option: its
// trials, samples, bits, runs or bytes. Every entry point resolves the
// option through it: the Run* functions, GenerateReport*,
// System.LeakKernelMemory, and the served request's Normalize, which
// the CLI shares. The CLI's flag and -h text come from it too.
type Count struct {
	Name    string // flag and JSON name
	Help    string // -h text
	Default int    // what 0 means
	Paper   int    // the paper's scale; 0 where it states none
	Max     int    // the ceiling
	Why     string // where the ceiling comes from
}

// Resolve returns the count a run uses when n is asked for: the default
// for 0, else n. A negative n, or one over the ceiling, is an error
// naming the option.
func (c Count) Resolve(n int) (int, error) {
	switch {
	case n < 0:
		return 0, fmt.Errorf("negative %s (%d)", c.Name, n)
	case n == 0:
		return c.Default, nil
	case n > c.Max:
		return 0, fmt.Errorf("%s %d over its ceiling of %d (%s)", c.Name, n, c.Max, c.Why)
	}
	return n, nil
}

// ceilingMargin is how far past the paper's own scale a count may go.
// Ten times the paper's runs narrows an accuracy interval about
// threefold, further than a comparison with the paper needs, and ten
// times its 4096-bit and 4096-byte messages is a 40 KB buffer. Past
// that a request only holds a worker for longer or sizes a buffer
// toward exhausting memory: covert bits and MDS bytes each size a make,
// and every run count sizes a sweep's result slice.
const ceilingMargin = 10

// paperScaled declares a count the paper gives a scale for, its ceiling
// ceilingMargin times that scale.
func paperScaled(name, help string, def, paper int) Count {
	return Count{Name: name, Help: help, Default: def, Paper: paper,
		Max: ceilingMargin * paper, Why: fmt.Sprintf("%d times the paper's %d", ceilingMargin, paper)}
}

// The experiments' counts; nothing assigns to them. paperScaled takes
// the name, the -h text, the default and the paper's scale. Fig7Samples'
// default of 22 gives the recovery full rank. ReportRuns is the reboot
// count of the report's Tables 3 and 5; its other sections run at most
// their own paper scale.
var (
	Table1Trials = Count{Name: "trials", Help: "per-cell trials", Default: 6,
		Max: 60, Why: "10 times the default; the paper states no trial count"}
	Fig7Samples = Count{Name: "samples", Help: "independent collisions to gather", Default: 22,
		Max: 36, Why: "collisions differ only in address bits 12-47, so no more than 36 are independent"}
	Table2Bits = paperScaled("bits", "message bits per run", 4096, 4096)
	Table2Runs = paperScaled("runs", "runs (median reported)", 10, 10)
	Table3Runs = paperScaled("runs", "reboots", 20, 100)
	Table4Runs = paperScaled("runs", "reboots", 10, 10)
	Table5Runs = paperScaled("runs", "reboots", 20, 100)
	MDSRuns    = paperScaled("runs", "reboots", 10, 10)
	MDSBytes   = paperScaled("bytes", "bytes to leak per run", 4096, 4096)
	ReportRuns = paperScaled("runs", "runs per derandomization experiment", 10, Table3Runs.Paper)
	ReportBits = paperScaled("bits", "bits per covert-channel run", 1024, Table2Bits.Paper)
)
