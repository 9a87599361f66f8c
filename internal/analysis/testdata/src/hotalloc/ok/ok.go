package ok

type probe struct{ va, tag uint64 }

type machine struct {
	arena []probe
	table map[uint64]int
}

// NewMachine is a cold constructor: it runs once, so building the
// arena and table here is exactly where allocation belongs.
func NewMachine(n int) *machine {
	return &machine{
		arena: make([]probe, 0, n),
		table: make(map[uint64]int, n),
	}
}

//phantomvet:hotroot fixture stand-in for the pipeline step path
func (m *machine) step(va uint64) probe {
	// Value composites are not heap shapes: a probe passed and returned
	// by value stays on the stack.
	p := probe{va: va}
	// The pre-size-then-fill idiom: append into a slice 3-arg-made in
	// this function never grows the backing array.
	batch := make([]probe, 0, 4)
	batch = append(batch, p)
	m.helper(batch)
	return p
}

// helper is hot via the call graph, and clean: it reuses the arena by
// reslicing and writing in place.
func (m *machine) helper(batch []probe) {
	m.arena = m.arena[:0]
	for i := range batch {
		if len(m.arena) < cap(m.arena) {
			m.arena = m.arena[:len(m.arena)+1]
			m.arena[len(m.arena)-1] = batch[i]
		}
	}
}

// coldPath allocates, which is fine: nothing reaches it from the
// annotated root.
func (m *machine) coldPath() *probe {
	return &probe{tag: 7}
}

// Fault mirrors the simulator's page-fault record.
type Fault struct {
	VA   uint64
	Kind int
}

// translateV returns its Fault by value, as the simulator's
// translation does: no fault reaches the heap.
//
//phantomvet:hotroot fixture stand-in for a harness probe
func translateV(va uint64, present bool) (uint64, Fault, bool) {
	if !present {
		return 0, Fault{VA: va, Kind: 1}, false
	}
	return va, Fault{}, true
}
