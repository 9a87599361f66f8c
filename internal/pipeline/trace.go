package pipeline

import "fmt"

// EventKind classifies a pipeline trace event.
type EventKind uint8

// Trace event kinds. Events flagged Spec are wrong-path (transient)
// activity; everything else is architectural.
const (
	EvFetchLine       EventKind = iota // a new I-cache line entered the fetch stream (VA = line)
	EvPredHit                          // BTB produced a prediction at VA (Aux = predicted target)
	EvPredRejected                     // a mitigation refused the prediction (Aux = target)
	EvResteerFrontend                  // decoder-detected misprediction at VA (Phantom)
	EvResteerBackend                   // execute-detected misprediction at VA (Spectre)
	EvSpecFetch                        // wrong-path line fetch (VA = line)
	EvSpecDecode                       // wrong-path instruction decoded at VA
	EvSpecUop                          // wrong-path µop dispatched at VA
	EvSpecLoad                         // wrong-path load issued (VA = load address)
	EvBranch                           // architectural taken branch at VA (Aux = target)
	EvSyscall                          // privilege transition (Aux: 1 = enter, 0 = exit)
	EvFault                            // architectural fault at VA
)

var eventNames = [...]string{
	"fetch-line", "pred-hit", "pred-rejected",
	"resteer-frontend", "resteer-backend",
	"spec-fetch", "spec-decode", "spec-uop", "spec-load",
	"branch", "syscall", "fault",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	Cycle uint64
	Kind  EventKind
	VA    uint64
	Aux   uint64
}

func (e Event) String() string {
	switch e.Kind {
	case EvPredHit, EvPredRejected, EvBranch:
		return fmt.Sprintf("[%8d] %-16s %#012x -> %#012x", e.Cycle, e.Kind, e.VA, e.Aux)
	case EvSyscall:
		dir := "exit"
		if e.Aux == 1 {
			dir = "enter"
		}
		return fmt.Sprintf("[%8d] %-16s %s", e.Cycle, e.Kind, dir)
	default:
		return fmt.Sprintf("[%8d] %-16s %#012x", e.Cycle, e.Kind, e.VA)
	}
}

// Tracer receives pipeline events. Implementations must be cheap: Emit is
// called from the interpreter's hot path (only when a tracer is attached).
type Tracer interface {
	Emit(Event)
}

// RingTracer keeps the most recent events in a fixed ring.
type RingTracer struct {
	buf   []Event
	next  int
	count int
}

// NewRingTracer returns a tracer retaining the last n events.
func NewRingTracer(n int) *RingTracer {
	return &RingTracer{buf: make([]Event, n)}
}

// Emit records an event.
func (r *RingTracer) Emit(e Event) {
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Events returns the retained events in chronological order.
func (r *RingTracer) Events() []Event {
	out := make([]Event, 0, r.count)
	start := (r.next - r.count + len(r.buf)) % len(r.buf)
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Reset drops all retained events.
func (r *RingTracer) Reset() {
	r.next, r.count = 0, 0
}

// emit is the guarded fast path used by the machine.
func (m *Machine) emit(kind EventKind, va, aux uint64) {
	if m.Tracer != nil {
		m.Tracer.Emit(Event{Cycle: m.Cycle, Kind: kind, VA: va, Aux: aux})
	}
}
