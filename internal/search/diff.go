package search

import (
	"context"
	"encoding/binary"

	"phantom/internal/isa"
	"phantom/internal/mem"
	"phantom/internal/pipeline"
)

// Episode is one wrong-path speculation episode observed in the
// victim run, reconstructed from decoder-visible trace events. Every
// episode the pipeline runs is delimited by its terminating resteer
// event (EvResteerFrontend for decoder-detected — Phantom — episodes,
// EvResteerBackend for execute-resolved ones), so the collector just
// accumulates EvSpec* counts until the next resteer closes them.
type Episode struct {
	Frontend   bool `json:"frontend"` // closed by a decoder-issued resteer
	FetchLines int  `json:"fetchLines"`
	Decodes    int  `json:"decodes"`
	Uops       int  `json:"uops"`
	Loads      int  `json:"loads"` // wrong-path D-cache fills (EvSpecLoad)
}

// collector is a pipeline.Tracer that folds the event stream into
// episodes.
type collector struct {
	episodes []Episode
	cur      Episode
	open     bool
}

func (c *collector) Emit(ev pipeline.Event) {
	switch ev.Kind {
	case pipeline.EvSpecFetch:
		c.open = true
		c.cur.FetchLines++
	case pipeline.EvSpecDecode:
		c.open = true
		c.cur.Decodes++
	case pipeline.EvSpecUop:
		c.open = true
		c.cur.Uops++
	case pipeline.EvSpecLoad:
		c.open = true
		c.cur.Loads++
	case pipeline.EvResteerFrontend, pipeline.EvResteerBackend:
		// A resteer closes the episode it terminates — including a
		// zero-depth one (a prediction consumed but killed before any
		// wrong-path fetch, e.g. the Intel jmp*-victim anomaly).
		c.cur.Frontend = ev.Kind == pipeline.EvResteerFrontend
		c.episodes = append(c.episodes, c.cur)
		c.cur = Episode{}
		c.open = false
	}
}

// finish flushes a dangling episode (a speculation run not followed by
// a resteer would be a model bug; keep the evidence rather than drop it).
func (c *collector) finish() []Episode {
	if c.open {
		c.episodes = append(c.episodes, c.cur)
		c.cur = Episode{}
		c.open = false
	}
	return c.episodes
}

func (c *collector) reset() {
	c.episodes = nil
	c.cur = Episode{}
	c.open = false
}

// ArchState is the architectural result of a victim run: everything a
// correct speculation implementation must leave identical between the
// mispredict-on and mispredict-off legs, except through the explicit
// rdtsc timing channel.
type ArchState struct {
	Regs    [isa.NumRegs]uint64 `json:"regs"`
	ZF      bool                `json:"zf"`
	CF      bool                `json:"cf"`
	RIP     uint64              `json:"rip"`
	Reason  string              `json:"reason"`
	Steps   int                 `json:"steps"`
	MemHash uint64              `json:"memHash"` // data+stack page contents
}

// Leg is one side of the differential pair.
type Leg struct {
	Arch       ArchState `json:"arch"`
	Cycles     uint64    `json:"cycles"`     // victim-run cycles
	PredDigest uint64    `json:"predDigest"` // BTB/RSB/PHT/BHB state
	Episodes   []Episode `json:"episodes"`
}

// Diff is the full differential result for one program.
type Diff struct {
	On  Leg `json:"on"`
	Off Leg `json:"off"`

	ArchDiverged bool  `json:"archDiverged"`
	PredDiverged bool  `json:"predDiverged"`
	CycleDelta   int64 `json:"cycleDelta"` // on - off
}

// runLeg builds p's lab on r's machine, binds it to ctx, trains, runs
// the victim once, and captures the leg. specOff selects the
// mispredict-off reference. A leg that ctx cut short returns ctx's
// error.
func runLeg(ctx context.Context, r *rig, p *Program, specOff bool) (Leg, error) {
	l, err := buildLab(r, p)
	if err != nil {
		return Leg{}, err
	}
	l.m.Bind(ctx)
	l.m.DisableSpeculation = specOff

	col := &collector{}
	l.m.Tracer = col

	rounds := p.Rounds
	if rounds < 1 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		if err := l.trainOnce(p); err != nil {
			return Leg{}, err
		}
	}

	// Victim-only observation: training-phase events are not part of
	// the signature.
	col.reset()
	cyclesBefore := l.m.Cycle
	res := l.runVictim()
	if err := ctx.Err(); err != nil {
		return Leg{}, err
	}

	leg := Leg{
		Arch: ArchState{
			Regs: l.m.Regs, ZF: l.m.ZF, CF: l.m.CF,
			RIP: l.m.RIP, Reason: res.Reason.String(), Steps: res.Steps,
			MemHash: l.memDigest(),
		},
		Cycles:     l.m.Cycle - cyclesBefore,
		PredDigest: l.predDigest(),
		Episodes:   col.finish(),
	}
	l.m.Tracer = nil
	return leg, nil
}

// The 64-bit FNV-1a parameters of the leg digests.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
	fnvPrime8 = 0x1efac7090aef4a21 // fnvPrime^8 mod 2^64: eight zero bytes
)

// memDigest hashes the data and stack pages: FNV-1a over their bytes,
// each page read once through its frame. An all-zero word folds as one
// multiply; in most programs every page is still zero after the victim.
func (l *lab) memDigest() uint64 {
	h := uint64(fnvOffset)
	for _, pa := range l.dataPAs {
		// dataPAs are page-aligned, so the window always fits.
		page, _ := l.m.Phys.Window(pa, mem.PageSize)
		for off := 0; off < len(page); off += 8 {
			w := page[off : off+8]
			if binary.LittleEndian.Uint64(w) == 0 {
				h *= fnvPrime8
				continue
			}
			for _, b := range w {
				h = (h ^ uint64(b)) * fnvPrime
			}
		}
	}
	return h
}

// predDigest folds the four predictor structures into one fingerprint.
func (l *lab) predDigest() uint64 {
	h := l.m.BTB.StateDigest()
	h = h*fnvPrime ^ l.m.RSB.StateDigest()
	h = h*fnvPrime ^ l.m.PHT.StateDigest()
	h = h*fnvPrime ^ l.m.BHB.StateDigest()
	return h
}

// RunDiff executes p mispredict-on and mispredict-off and diffs the
// two legs.
func RunDiff(p *Program) (*Diff, error) { return runDiff(context.TODO(), &rig{}, p) }

// runDiff is RunDiff with both legs on r's machine, bound to ctx.
func runDiff(ctx context.Context, r *rig, p *Program) (*Diff, error) {
	on, err := runLeg(ctx, r, p, false)
	if err != nil {
		return nil, err
	}
	off, err := runLeg(ctx, r, p, true)
	if err != nil {
		return nil, err
	}
	d := &Diff{On: on, Off: off}
	d.ArchDiverged = on.Arch != off.Arch
	d.PredDiverged = on.PredDigest != off.PredDigest
	d.CycleDelta = int64(on.Cycles) - int64(off.Cycles)
	return d, nil
}

// usesRdtsc reports whether any generated statement reads the cycle
// counter — the one sanctioned way timing reaches architectural state.
func (p *Program) usesRdtsc() bool {
	for _, s := range p.Victim {
		if s == "rdtsc" {
			return true
		}
	}
	for _, s := range p.Gadget {
		if s == "rdtsc" {
			return true
		}
	}
	return false
}
