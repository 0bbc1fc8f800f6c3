package cachemodel

import (
	"math"

	"repro/internal/cachesim"
	"repro/internal/hardware"
)

// MustNew is New, panicking on error.
func MustNew(h *hardware.Hierarchy) *Model {
	m, err := New(h)
	if err != nil {
		panic(err)
	}
	return m
}

// Stats returns the expected counters of level i, rounded to integers,
// in the trace simulator's terms.
func (r *Result) Stats(i int) cachesim.Stats {
	lr := r.levels[i]
	s := cachesim.Stats{
		Accesses:  uint64(math.Round(lr.accesses)),
		SeqMisses: uint64(math.Round(lr.seqMiss)),
		RndMisses: uint64(math.Round(lr.rndMiss)),
	}
	if m := s.SeqMisses + s.RndMisses; s.Accesses > m {
		s.Hits = s.Accesses - m
	}
	return s
}

// MissesNS returns level i's expected (seq, rnd) miss counts without
// rounding — what the cross-check against the trace simulator compares.
func (r *Result) MissesNS(i int) (seq, rnd float64) {
	return r.levels[i].seqMiss, r.levels[i].rndMiss
}

// MemoLen returns the number of memoized integration results.
func (pr *Pricer) MemoLen() int { return len(pr.az.memo) }
