package pipeline

import (
	"testing"

	"phantom/internal/uarch"
)

func TestTracerCapturesPhantomEpisode(t *testing.T) {
	f := buildPhantomFixture(t, uarch.Zen2())
	tr := NewRingTracer(256)
	f.m.Tracer = tr

	f.train(t, 2)
	tr.Reset()
	f.flushSignals()
	f.runVictim(t)

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// The victim run must show: a prediction hit at B, wrong-path fetch/
	// decode/load at C and the probe, then a frontend resteer.
	var sawPred, sawSpecFetch, sawSpecLoad, sawResteer bool
	var predCycle, resteerCycle uint64
	for _, e := range events {
		switch e.Kind {
		case EvPredHit:
			if e.VA == f.bAddr {
				sawPred = true
				predCycle = e.Cycle
			}
		case EvSpecFetch:
			if e.VA == f.cAddr&^63 {
				sawSpecFetch = true
			}
		case EvSpecLoad:
			if e.VA == f.probeVA {
				sawSpecLoad = true
			}
		case EvResteerFrontend:
			sawResteer = true
			resteerCycle = e.Cycle
		}
	}
	if !sawPred || !sawSpecFetch || !sawSpecLoad || !sawResteer {
		t.Fatalf("missing events: pred=%v fetch=%v load=%v resteer=%v\n%v",
			sawPred, sawSpecFetch, sawSpecLoad, sawResteer, events)
	}
	if resteerCycle < predCycle {
		t.Fatal("resteer recorded before the prediction that caused it")
	}
	// Chronological ordering across the whole trace.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestRingTracerWrapAround(t *testing.T) {
	tr := NewRingTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i)})
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d", len(events))
	}
	for i, e := range events {
		if e.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle %d, want %d", i, e.Cycle, 6+i)
		}
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestEventStringers(t *testing.T) {
	for k := EventKind(0); k <= EvFault; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
		e := Event{Cycle: 1, Kind: k, VA: 0x1000, Aux: 1}
		if e.String() == "" {
			t.Fatalf("event %v has no string", k)
		}
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	// Without a tracer the machine must behave identically (emit is a
	// no-op); compare cycle counts with and without a tracer attached.
	run := func(attach bool) uint64 {
		f := buildPhantomFixture(t, uarch.Zen2())
		if attach {
			f.m.Tracer = NewRingTracer(1024)
		}
		f.train(t, 2)
		f.flushSignals()
		f.runVictim(t)
		return f.m.Cycle
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("tracer changed timing: %d vs %d", a, b)
	}
}
