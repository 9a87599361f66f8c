package search

import (
	"context"
	"fmt"
)

// Minimize shrinks an anomalous program to a locally-minimal
// reproducer of one category: a delta-debugging pass over the victim
// and gadget statement lists (chunked removal, halving chunk sizes down
// to single statements) plus training-round reduction, iterated to a
// fixpoint. "Locally minimal" means removing any single remaining
// statement — or any training round — loses the finding.
//
// The criterion is coarse on purpose: the shrunk program must still
// classify into the same category with the same trainer class, not
// reproduce the original depth signature bit-for-bit. A minimizer that
// pinned the full signature would refuse to remove statements that
// merely pad the episode, which is exactly the noise minimization
// exists to strip.
func Minimize(p *Program, cat Category) (*Program, error) {
	return minimize(context.TODO(), &rig{}, p, cat)
}

// minimize is Minimize under ctx with every candidate on r's machine,
// bound to ctx: a done ctx ends the pass with its error.
func minimize(ctx context.Context, r *rig, p *Program, cat Category) (*Program, error) {
	ok, err := reproduces(ctx, r, p, cat)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("search: %s finding does not reproduce on its own program", cat)
	}

	cur := p.clone()
	for changed := true; changed; {
		changed = false

		if v, shrunk, err := ddList(ctx, r, cur, cat, true); err != nil {
			return nil, err
		} else if shrunk {
			cur, changed = v, true
		}
		if v, shrunk, err := ddList(ctx, r, cur, cat, false); err != nil {
			return nil, err
		} else if shrunk {
			cur, changed = v, true
		}
		for cur.Rounds > 1 {
			c := cur.clone()
			c.Rounds--
			ok, err := reproduces(ctx, r, c, cat)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			cur, changed = c, true
		}
	}
	return cur, nil
}

// ddList runs one delta-debugging sweep over the victim (victim=true)
// or gadget statement list, returning the shrunk program and whether
// anything was removed.
func ddList(ctx context.Context, r *rig, p *Program, cat Category, victim bool) (*Program, bool, error) {
	cur := p.clone()
	shrunk := false
	list := func(q *Program) []string {
		if victim {
			return q.Victim
		}
		return q.Gadget
	}
	setList := func(q *Program, s []string) {
		if victim {
			q.Victim = s
		} else {
			q.Gadget = s
		}
	}

	for chunk := (len(list(cur)) + 1) / 2; chunk >= 1; {
		removedAny := false
		for start := 0; start+chunk <= len(list(cur)); {
			l := list(cur)
			cand := make([]string, 0, len(l)-chunk)
			cand = append(cand, l[:start]...)
			cand = append(cand, l[start+chunk:]...)
			c := cur.clone()
			setList(c, cand)
			ok, err := reproduces(ctx, r, c, cat)
			if err != nil {
				return nil, false, err
			}
			if ok {
				cur = c
				shrunk, removedAny = true, true
				// Do not advance: the next chunk slid into place.
				continue
			}
			start += chunk
		}
		if !removedAny {
			chunk /= 2
		} else if chunk > len(list(cur)) {
			chunk = len(list(cur))
		}
		if chunk < 1 {
			break
		}
	}
	return cur, shrunk, nil
}

// reproduces reports whether p still classifies into cat. A program
// that no longer assembles (possible when removal strands a branch
// without its label — not with the current single-label grammar, but
// the minimizer must not depend on that) counts as not reproducing.
// Every delta-debugging step runs through here, so this is where a done
// ctx stops the minimizer: its legs fail, and ctx's error is returned.
func reproduces(ctx context.Context, r *rig, p *Program, cat Category) (bool, error) {
	d, err := runDiff(ctx, r, p)
	if err != nil {
		return false, ctx.Err() //nolint:nilerr // with ctx live, an unassemblable candidate = not a reproducer
	}
	for _, f := range Classify(p, d) {
		if f.Category == cat {
			return true, nil
		}
	}
	return false, nil
}

// clone deep-copies a program.
func (p *Program) clone() *Program {
	c := *p
	c.Victim = append([]string(nil), p.Victim...)
	c.Gadget = append([]string(nil), p.Gadget...)
	return &c
}
