package btb

import "fmt"

// Lane tables: Index and Tag without parity loops.
//
// Every bit of the index and of the tag's address part is a linear form
// over GF(2) in the VA: the function bits are XORs of address bits
// (Figure 7), and the verbatim PC bits — [11:4] in the index, [11:0] in
// the tag — are one-bit forms. A linear map f satisfies
// f(a ^ b) = f(a) ^ f(b), so with va split into its eight bytes
//
//	f(va) = f(byte0) ^ f(byte1 << 8) ^ ... ^ f(byte7 << 56),
//
// and f restricted to one byte lane is a 256-entry table: eight loads
// and seven XORs replace the 15–24 popcount parities of evaluating the
// forms one by one (the CRC-table technique). One word carries both
// maps, the index in its low 32 bits and the tag's address part in its
// high 32, so a BTB probe folds once. The privilege bit is not a
// function of the VA and stays a separate OR (Scheme.key).
//
// The tables are a simulator fast path, not a modeled structure: they
// are built from the forms (parityIndex, parityTag) and equal them on
// every VA, so no index, tag, prediction or digest moves.

// derived is what a scheme definition's forms determine and every
// Scheme of that definition shares read-only: the lane tables and the
// alias masks.
type derived struct {
	lanes [8][256]uint64

	samePriv, crossPriv     uint64
	samePrivOK, crossPrivOK bool
}

// derive builds s's lane tables and solves its alias masks, once per
// definition: the constructors call it inside a sync.OnceValue, and
// named copies share the result. Nothing on the lookup path builds.
func derive(s *Scheme) *Scheme {
	if len(s.IndexForms)+8 > 32 || verbatimTagBits+len(s.TagForms) > 32 {
		panic(fmt.Sprintf("btb: %d index and %d tag forms overflow a lane word", len(s.IndexForms), len(s.TagForms)))
	}
	d := &derived{}
	for l := range d.lanes {
		for v := range d.lanes[l] {
			va := uint64(v) << (8 * l)
			d.lanes[l][v] = uint64(s.parityIndex(va)) | s.parityTag(va, false)<<32
		}
	}
	d.samePriv, d.samePrivOK = samePrivAliasMask(s)
	d.crossPriv, d.crossPrivOK = crossPrivAliasMask(s)
	s.derived = d
	return s
}

// named returns a copy of the definition s under a diagnostic name,
// sharing its forms and derived tables.
func (s *Scheme) named(name string) *Scheme {
	c := *s
	c.SchemeName = name
	return &c
}

// fold returns the index (low 32 bits) and the tag's address part (high
// 32 bits) of va.
func (d *derived) fold(va uint64) uint64 {
	t := &d.lanes
	return t[0][byte(va)] ^ t[1][byte(va>>8)] ^ t[2][byte(va>>16)] ^ t[3][byte(va>>24)] ^
		t[4][byte(va>>32)] ^ t[5][byte(va>>40)] ^ t[6][byte(va>>48)] ^ t[7][byte(va>>56)]
}
