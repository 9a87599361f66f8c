package bad

type probe struct{ va, tag uint64 }

var sink any

//phantomvet:hotroot fixture stand-in for the pipeline step path
func step(n int) int {
	p := &probe{va: 1} // want "&composite literal allocates in a hot function"
	sink = p
	q := new(probe) // want "allocates in a hot function"
	sink = q
	m := map[uint64]int{} // want "map literal allocates in a hot function"
	sink = m
	s := []int{1, 2, 3} // want "slice literal allocates in a hot function"
	sink = s
	var grown []probe
	grown = append(grown, probe{va: 2}) // want "append may grow its backing array in a hot function"
	sink = grown
	return helper(n)
}

// helper is hot transitively: the call graph reaches it from step.
func helper(n int) int {
	h := &probe{tag: uint64(n)} // want "&composite literal allocates in a hot function"
	sink = h
	return n
}

// cold is unreachable from any hot root; it may allocate freely.
func cold() *probe {
	return &probe{va: 9}
}

// Fault mirrors the simulator's page-fault record, which the hot path
// passes by value.
type Fault struct {
	VA   uint64
	Kind int
}

//phantomvet:hotroot fixture stand-in for a harness probe
func translate(va uint64, present bool) (uint64, *Fault) {
	if !present {
		return 0, &Fault{VA: va, Kind: 1} // want "&composite literal allocates in a hot function"
	}
	f := new(Fault) // want "allocates in a hot function"
	f.VA = va
	return va, f
}
