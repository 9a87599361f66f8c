package search

import (
	"context"

	"phantom/internal/isa"
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

// runLeg builds a fresh machine for p, bound to ctx, trains, runs the
// victim once, and captures the leg. specOff selects the mispredict-off
// reference. A leg that ctx cut short returns ctx's error.
func runLeg(ctx context.Context, p *Program, specOff bool) (Leg, error) {
	l, err := buildLab(p)
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

// memDigest hashes the data and stack pages.
func (l *lab) memDigest() uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, pa := range l.dataPAs {
		for off := uint64(0); off < 4096; off += 8 {
			v := l.m.Phys.Read64(pa + off)
			for i := 0; i < 8; i++ {
				h ^= v & 0xff
				h *= 0x100000001b3
				v >>= 8
			}
		}
	}
	return h
}

// predDigest folds the four predictor structures into one fingerprint.
func (l *lab) predDigest() uint64 {
	h := l.m.BTB.StateDigest()
	h = h*0x100000001b3 ^ l.m.RSB.StateDigest()
	h = h*0x100000001b3 ^ l.m.PHT.StateDigest()
	h = h*0x100000001b3 ^ l.m.BHB.StateDigest()
	return h
}

// RunDiff executes p mispredict-on and mispredict-off and diffs the
// two legs.
func RunDiff(p *Program) (*Diff, error) { return runDiff(context.TODO(), p) }

// runDiff is RunDiff with both legs' machines bound to ctx.
func runDiff(ctx context.Context, p *Program) (*Diff, error) {
	on, err := runLeg(ctx, p, false)
	if err != nil {
		return nil, err
	}
	off, err := runLeg(ctx, p, true)
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
