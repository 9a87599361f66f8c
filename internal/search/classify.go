package search

import (
	"fmt"
	"sync"

	"phantom/internal/uarch"
)

// Category buckets a divergence, following the systematization of
// transient-execution attacks (Canella et al.): what stage the
// transient path reached, what channel it left state in, and whether
// the divergence is an expected attack surface or a model-invariant
// violation.
type Category string

// Categories, in classification order (the order findings are emitted
// for one program).
const (
	// CatDeepWindow: a decoder-detectable misprediction dispatched
	// wrong-path µops to execute — speculation deeper than the decode
	// stage that detects the confusion. This is the paper's headline
	// Table 1 divergence (Observation O3, Zen 1/Zen 2).
	CatDeepWindow Category = "deep-window"
	// CatLeakChannel: a Phantom window issued a wrong-path load,
	// leaving a D-cache footprint a disclosure gadget can read (the
	// P2/P3 primitive).
	CatLeakChannel Category = "leak-channel"
	// CatUncoveredChannel: a wrong-path load on a profile whose
	// Phantom window dispatches zero µops — a leak through a channel
	// the model says is closed. Always a model bug.
	CatUncoveredChannel Category = "uncovered-channel"
	// CatWindowExceeded: an episode deeper than the profile's declared
	// windows. Always a model bug.
	CatWindowExceeded Category = "window-exceeded"
	// CatPredictorState: predictor replacement state diverged between
	// the legs — wrong-path BTB lookups refreshed entry recency, so
	// speculation that never retired still steers future evictions.
	CatPredictorState Category = "predictor-state"
	// CatTimingChannel: architectural state diverged through rdtsc —
	// transient cache fills changed a latency the program measured.
	CatTimingChannel Category = "timing-channel"
	// CatArchDivergence: architectural state diverged with no rdtsc in
	// the program. Speculation must never retire; always a model bug.
	CatArchDivergence Category = "arch-divergence"
)

// categoryOrder fixes the emission order of Classify.
var categoryOrder = []Category{
	CatDeepWindow, CatLeakChannel, CatUncoveredChannel, CatWindowExceeded,
	CatPredictorState, CatTimingChannel, CatArchDivergence,
}

// Invariant reports whether the category is a model-invariant
// violation (a simulator bug) rather than an expected attack surface.
func (c Category) Invariant() bool {
	switch c {
	case CatUncoveredChannel, CatWindowExceeded, CatArchDivergence:
		return true
	}
	return false
}

// Finding is one classified divergence: the signature fields that make
// up its dedup key, the pinned measurements, and the (possibly
// minimized) program that reproduces it.
type Finding struct {
	Category Category `json:"category"`
	Arch     string   `json:"arch"`
	Train    string   `json:"train"`

	// Signature of the mispredict-on victim run.
	Episodes  int `json:"episodes"`  // total speculation episodes
	MaxFetch  int `json:"maxFetch"`  // deepest wrong-path fetch, in lines
	MaxDecode int `json:"maxDecode"` // deepest wrong-path decode, in insts
	MaxUops   int `json:"maxUops"`   // deepest wrong-path execute, in µops
	SpecLoads int `json:"specLoads"` // wrong-path D-cache fills

	CycleDelta   int64 `json:"cycleDelta"`
	PredDiverged bool  `json:"predDiverged"`
	ArchDiverged bool  `json:"archDiverged"`

	Program *Program `json:"program"`
}

// Key is the dedup signature: two programs that reach the same depth
// through the same trainer class on the same profile are the same
// variant. The key deliberately excludes cycle counts and program
// text, so minimization cannot change it.
func (f *Finding) Key() string {
	return fmt.Sprintf("%s/%s/%s/e%d-f%d-d%d-u%d-l%d",
		f.Arch, f.Category, f.Train,
		f.Episodes, f.MaxFetch, f.MaxDecode, f.MaxUops, f.SpecLoads)
}

// Classify buckets the divergences of one differential run. It returns
// zero or more findings in categoryOrder; an empty slice means the
// program exposed nothing beyond ordinary, in-model behavior.
func Classify(p *Program, d *Diff) []Finding {
	prof := profileWindows(p.Arch)

	base := Finding{
		Arch: p.Arch, Train: p.Train,
		Episodes:     len(d.On.Episodes),
		CycleDelta:   d.CycleDelta,
		PredDiverged: d.PredDiverged,
		ArchDiverged: d.ArchDiverged,
		Program:      p,
	}
	var frontLoads, frontUops int
	exceeded := false
	for _, ep := range d.On.Episodes {
		if ep.FetchLines > base.MaxFetch {
			base.MaxFetch = ep.FetchLines
		}
		if ep.Decodes > base.MaxDecode {
			base.MaxDecode = ep.Decodes
		}
		if ep.Uops > base.MaxUops {
			base.MaxUops = ep.Uops
		}
		base.SpecLoads += ep.Loads
		if ep.Frontend {
			frontLoads += ep.Loads
			if ep.Uops > frontUops {
				frontUops = ep.Uops
			}
			if ep.FetchLines > prof.phantom.FetchLines ||
				ep.Decodes > prof.phantom.DecodeInsts ||
				ep.Uops > prof.phantom.ExecUops {
				exceeded = true
			}
		} else {
			if ep.FetchLines > prof.spectre.FetchLines ||
				ep.Decodes > prof.spectre.DecodeInsts ||
				ep.Uops > prof.spectre.ExecUops {
				exceeded = true
			}
		}
	}

	has := map[Category]bool{
		CatDeepWindow:       frontUops > 0,
		CatLeakChannel:      frontLoads > 0,
		CatUncoveredChannel: frontLoads > 0 && prof.phantom.ExecUops == 0,
		CatWindowExceeded:   exceeded,
		CatPredictorState:   d.PredDiverged,
		CatTimingChannel:    d.ArchDiverged && p.usesRdtsc(),
		CatArchDivergence:   d.ArchDiverged && !p.usesRdtsc(),
	}

	var out []Finding
	for _, cat := range categoryOrder {
		if !has[cat] {
			continue
		}
		f := base
		f.Category = cat
		out = append(out, f)
	}
	return out
}

// windows carries the profile's declared episode bounds.
type windows struct {
	phantom, spectre struct{ FetchLines, DecodeInsts, ExecUops int }
}

// windowsByArch holds profileWindows' answer per arch name: Classify
// runs once per program, and resolving a name builds a whole Profile.
var windowsByArch sync.Map // arch name -> windows

// profileWindows resolves the declared windows for an arch name, once
// per name. An unknown arch (impossible past buildLab) yields zero
// windows, which classifies everything as exceeded — loud, not silent.
func profileWindows(arch string) windows {
	if w, ok := windowsByArch.Load(arch); ok {
		return w.(windows)
	}
	var w windows
	p, err := uarch.ByName(arch)
	if err != nil {
		return w
	}
	w.phantom.FetchLines = p.PhantomWindow.FetchLines
	w.phantom.DecodeInsts = p.PhantomWindow.DecodeInsts
	w.phantom.ExecUops = p.PhantomWindow.ExecUops
	w.spectre.FetchLines = p.SpectreWindow.FetchLines
	w.spectre.DecodeInsts = p.SpectreWindow.DecodeInsts
	w.spectre.ExecUops = p.SpectreWindow.ExecUops
	windowsByArch.Store(arch, w)
	return w
}
