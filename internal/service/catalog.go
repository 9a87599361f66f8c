package service

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"phantom"
)

// Experiment is one entry of the catalog, the single declaration of a
// servable experiment. Normalize, Execute, the server's timeouts and
// cluster fan-out, and the phantom CLI's flag sets, help, -json output,
// and `phantom all` steps are all derived from it, so adding or changing
// an experiment is one edit to the experiments table.
type Experiment struct {
	// Name is the CLI subcommand and the request's "experiment" value.
	Name string
	// Usage is the line `phantom help` lists; Paper names the artifact
	// it reproduces, if any.
	Usage, Paper string
	// Jobs marks sweep-backed experiments: the CLI offers -jobs.
	Jobs bool
	// JSON marks experiments with a -json rendering: the documents their
	// run returns, one JSON value each.
	JSON bool
	// Hint is a progress line the CLI prints to stderr before a text
	// run. It is never part of the output.
	Hint string

	// archs is the default arch list as the CLI spells it ("all", "amd",
	// or a comma list); "" means the experiment takes no arch list.
	// archHelp completes the -arch help text.
	archs, archHelp string
	seed            int64           // default seed
	noise           bool            // takes Table 1's noise level
	counts          []phantom.Count // the Request count fields it takes
	weight          int             // timeout weight, see Request.Timeout

	// Exactly one of perArch and whole is set. A perArch run renders one
	// arch with the request's options and returns that arch's JSON
	// document, so a multi-arch request is byte-identical to its
	// single-arch sub-requests concatenated in canonical order: these are
	// the experiments the cluster fans out. A whole run renders the
	// entire request and returns all of its JSON documents.
	perArch perArchRun
	whole   wholeRun

	defArchs []string // archs, expanded into canonical order
}

type (
	perArchRun func(ctx context.Context, w io.Writer, a phantom.Microarch, r Request, jobs int) (any, error)
	wholeRun   func(ctx context.Context, w io.Writer, archs []phantom.Microarch, r Request, jobs int) ([]any, error)
)

// count returns the Request field a Count names.
func (r *Request) count(name string) *int {
	switch name {
	case "trials":
		return &r.Trials
	case "bits":
		return &r.Bits
	case "runs":
		return &r.Runs
	case "bytes":
		return &r.Bytes
	case "samples":
		return &r.Samples
	}
	panic("service: no Request count field " + name)
}

// experiments is the catalog, in the order `phantom help` lists and
// `phantom all` runs them. The run functions live in exec.go.
var experiments = []*Experiment{
	{Name: "table1", Usage: "training×victim misprediction matrix", Paper: "Table 1",
		archs: "all", archHelp: ": name, comma list, amd, or all", seed: 1, noise: true,
		counts: []phantom.Count{phantom.Table1Trials},
		weight: 2, JSON: true, perArch: runTable1},
	{Name: "fig6", Usage: "speculative decode vs page offset", Paper: "Figure 6",
		archs: "zen2,zen4", archHelp: "; the paper plots zen2 and zen4", seed: 1,
		weight: 1, Jobs: true, JSON: true, whole: runFig6},
	{Name: "fig7", Usage: "BTB index-function recovery", Paper: "Figure 7",
		archs: "zen3", archHelp: "; the paper reverse engineers zen3", seed: 9,
		counts: []phantom.Count{phantom.Fig7Samples},
		weight: 4, Jobs: true, JSON: true, whole: runFig7,
		Hint: "recovering BTB functions (sampling may take ~10s)..."},
	{Name: "covert", Usage: "fetch/execute covert channels", Paper: "Table 2",
		archs: "amd", seed: 1,
		counts: []phantom.Count{phantom.Table2Bits, phantom.Table2Runs},
		weight: 3, Jobs: true, JSON: true, whole: runCovert},
	{Name: "kaslr", Usage: "kernel image KASLR break", Paper: "Table 3",
		archs: "zen2,zen3,zen4", archHelp: "; Table 3 uses zen2, zen3, zen4", seed: 1,
		counts: []phantom.Count{phantom.Table3Runs},
		weight: 3, Jobs: true, JSON: true, whole: derand("Table 3 — kernel image KASLR via P1", phantom.RunTable3)},
	{Name: "physmap", Usage: "physmap KASLR break", Paper: "Table 4",
		archs: "zen1,zen2", archHelp: "; P2 works on zen1, zen2", seed: 1,
		counts: []phantom.Count{phantom.Table4Runs},
		weight: 3, Jobs: true, JSON: true, whole: derand("Table 4 — physmap KASLR via P2", phantom.RunTable4)},
	{Name: "physaddr", Usage: "physical address derandomization", Paper: "Table 5",
		seed:   1,
		counts: []phantom.Count{phantom.Table5Runs},
		weight: 4, Jobs: true, JSON: true, whole: derand("Table 5 — physical address of a user page", table5)},
	{Name: "mds", Usage: "MDS-gadget kernel memory leak", Paper: "Section 7.4",
		archs: "zen2", archHelp: "; the paper's PoC runs on zen2", seed: 1,
		counts: []phantom.Count{phantom.MDSRuns, phantom.MDSBytes},
		weight: 4, Jobs: true, JSON: true, perArch: runMDS},
	{Name: "mitigations", Usage: "mitigation evaluation", Paper: "Sections 6.3, 8",
		archs: "amd", seed: 1,
		weight: 2, JSON: true, perArch: runMitigations},
	{Name: "sls", Usage: "straight-line speculation cell", Paper: "Table 1, footnote c",
		archs: "all", seed: 1,
		weight: 2, whole: runSLS},
	{Name: "report", Usage: "full paper-vs-measured Markdown report",
		seed:   1,
		counts: []phantom.Count{phantom.ReportBits, phantom.ReportRuns},
		weight: 10, Jobs: true, whole: runReport},
	{Name: "chain", Usage: "full Section 7 exploit chain",
		archs: "zen2", seed: 1,
		weight: 3, perArch: runChain},
}

// byName indexes the catalog and expands each default arch list once,
// so Normalize only copies it.
var byName = func() map[string]*Experiment {
	m := make(map[string]*Experiment, len(experiments))
	for _, e := range experiments {
		if e.archs != "" {
			archs, err := expandArchs(strings.Split(e.archs, ","))
			if err != nil {
				panic("service: catalog entry " + e.Name + ": " + err.Error())
			}
			e.defArchs = archs
		}
		m[e.Name] = e
	}
	return m
}()

// Catalog returns the servable experiments in catalog order.
func Catalog() []*Experiment { return append([]*Experiment(nil), experiments...) }

// Lookup returns the catalog entry for an experiment name.
func Lookup(name string) (*Experiment, bool) {
	e, ok := byName[name]
	return e, ok
}

// Experiments lists the servable experiment names in sorted order (the
// /v1/arches handler).
func Experiments() []string {
	out := make([]string, 0, len(experiments))
	for _, e := range experiments {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Flags registers the request fields e takes on fs: -arch, -seed, and
// each count, with its declared default and help, the paper's scale and
// the ceiling. The returned function reads the parsed flags back as a
// Request, still to be normalized.
func (e *Experiment) Flags(fs *flag.FlagSet) func() Request {
	r := Request{Experiment: e.Name}
	var arch string
	if e.archs != "" {
		fs.StringVar(&arch, "arch", e.archs, "microarchitecture(s)"+e.archHelp)
	}
	fs.Int64Var(&r.Seed, "seed", e.seed, "random seed")
	if e.noise {
		fs.Float64Var(&r.Noise, "noise", 0, "noise level (0 = lab conditions)")
	}
	for _, c := range e.counts {
		help := fmt.Sprintf("%s; at most %d", c.Help, c.Max)
		if c.Paper != 0 {
			help = fmt.Sprintf("%s; the paper uses %d, at most %d", c.Help, c.Paper, c.Max)
		}
		fs.IntVar(r.count(c.Name), c.Name, c.Default, help)
	}
	return func() Request {
		out := r
		if e.archs != "" {
			for _, a := range strings.Split(arch, ",") {
				out.Archs = append(out.Archs, strings.TrimSpace(a))
			}
		}
		return out
	}
}
