package cachemodel

import "repro/internal/hardware"

// MustNew is New, panicking on error.
func MustNew(h *hardware.Hierarchy) *Model {
	m, err := New(h)
	if err != nil {
		panic(err)
	}
	return m
}

// MissesNS returns level i's expected (seq, rnd) miss counts without
// rounding — what the cross-check against the trace simulator compares.
func (r *Result) MissesNS(i int) (seq, rnd float64) {
	return r.levels[i].seqMiss, r.levels[i].rndMiss
}

// MemoLen returns the number of memoized integration results.
func (pr *Pricer) MemoLen() int { return len(pr.az.memo) }
