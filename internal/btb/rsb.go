package btb

// RSB is the Return Stack Buffer (also called Return Address Stack): a
// circular stack of the N most recent call sites used to predict return
// targets without waiting for the architectural stack load (paper
// Section 2.1). When a victim instruction is predicted as a return —
// because the BTB entry was trained by a ret — the frontend steers to the
// RSB top, which the paper notes sends speculation "to the most recent
// call site" rather than to C (Section 5.2, "Training using ret").
type RSB struct {
	entries []uint64
	top     int // index of the next push slot
	depth   int // number of live entries, capped at capacity
}

// NewRSB returns an RSB with the given capacity (16 or 32 on the modeled
// parts).
func NewRSB(capacity int) *RSB {
	r := &RSB{entries: make([]uint64, capacity)}
	r.Reset()
	return r
}

// Reset empties the RSB and also zeroes the slots Clear leaves behind:
// the state NewRSB returns.
func (r *RSB) Reset() {
	clear(r.entries)
	r.Clear()
}

// Capacity returns the RSB size.
func (r *RSB) Capacity() int { return len(r.entries) }

// Push records a return address at a call.
func (r *RSB) Push(retAddr uint64) {
	r.entries[r.top] = retAddr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts the target of a return. ok is false when the RSB is empty
// (underflow; some real parts then fall back to the BTB, which is its own
// attack surface [73] — the simulator just reports no prediction).
func (r *RSB) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top], true
}

// Peek returns the would-be prediction without consuming it.
func (r *RSB) Peek() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	idx := (r.top - 1 + len(r.entries)) % len(r.entries)
	return r.entries[idx], true
}

// Fill overwrites every entry with the given dummy target — RSB stuffing,
// one of the software defenses discussed in Section 2.4.
func (r *RSB) Fill(dummy uint64) {
	for i := range r.entries {
		r.entries[i] = dummy
	}
	r.depth = len(r.entries)
	r.top = 0
}

// Clear empties the RSB.
func (r *RSB) Clear() {
	r.depth = 0
	r.top = 0
}
