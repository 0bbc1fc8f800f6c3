package cost

import (
	"slices"
	"sort"

	"repro/internal/costmath"
	"repro/internal/pattern"
	"repro/internal/region"
)

// This file implements Section 5 of the paper: combining the cost
// functions of basic patterns into cost functions for compound patterns.
//
//   - Eq. 5.1: misses of a basic pattern given an initial cache state
//     (data left behind by earlier patterns).
//   - Eq. 5.2: sequential execution ⊕ — patterns run one after another,
//     each starting from the cache state its predecessor left.
//   - Eq. 5.3: concurrent execution ⊙ — patterns compete for the cache,
//     which is divided among them in proportion to their footprints.

// evalLevel computes the misses of p at one cache level, given the
// initial state st, and returns the resulting state. A non-nil rec
// records an Explain row for every node the walk visits.
func evalLevel(lp levelParams, st state, p pattern.Pattern, rec *recorder) (mi Misses, after state) {
	row := rec.open(p, false)
	switch q := p.(type) {
	case pattern.Seq:
		// Eq. 5.2: fold the state through the sub-patterns.
		after = st
		for _, sub := range q {
			var m Misses
			m, after = evalLevel(lp, after, sub, rec)
			mi = mi.Add(m)
		}

	case pattern.Conc:
		// Eq. 5.3: divide the cache among the patterns in footprint
		// proportion; each runs on its scaled-down cache.
		total := footprint(lp, q)
		resident := state{}
		for _, sub := range q {
			nu := 1.0
			if total > 0 {
				nu = footprint(lp, sub) / total
			}
			if nu <= 0 {
				// Patterns with zero-share footprints (pure streams) still
				// stream through at least a line's worth of cache.
				nu = 1 / lp.L
			}
			// A ⊙ child is one row: the rows under it would show misses
			// on the scaled-down cache, not the hierarchy's.
			child := rec.open(sub, true)
			m, subState := evalLevel(lp.Scaled(nu), st, sub, nil)
			rec.close(child, m)
			mi = mi.Add(m)
			// After ⊙ the cache holds a fraction of each region
			// proportional to its pattern's share.
			for r, f := range subState {
				if f > resident[r] {
					resident[r] = f
				}
			}
		}
		after = mergeState(lp, st, resident)

	default:
		// Basic pattern: Eq. 5.1 state adjustment around the Section-4
		// cold-cache count, then the resulting single-region state.
		mi = stateAdjusted(lp, st, p)
		after = mergeState(lp, st, resultState(lp, p))
	}
	rec.close(row, mi)
	return mi, after
}

// mergeState combines the state a pattern leaves behind with the
// previous contents that still fit beside it. The paper assumes only the
// last region remains cached and explicitly leaves retention of earlier
// regions "for future research"; this implementation keeps earlier
// regions as long as the new pattern's resident bytes leave room,
// scaling their fractions down proportionally otherwise. Recursive
// patterns (quick-sort) need this to model that the second half of a
// cache-resident segment survives while the first half is sorted.
func mergeState(lp levelParams, old, new state) state {
	out := new.clone()
	var buf [16]float64
	terms := buf[:0]
	for r, f := range new {
		terms = append(terms, f*float64(r.Size()))
	}
	newBytes := sumAscending(terms)
	avail := lp.C - newBytes
	if avail <= 0 {
		return out
	}
	// Old entries that overlap a new entry (same region, or related via
	// the sub-region parent chain) would double-count resident bytes —
	// the new entry supersedes them.
	keep := func(r *region.Region) bool {
		if _, ok := out[r]; ok {
			return false
		}
		for n := range new {
			if related(r, n) {
				return false
			}
		}
		return true
	}
	terms = terms[:0]
	for r, f := range old {
		if keep(r) {
			terms = append(terms, f*float64(r.Size()))
		}
	}
	oldBytes := sumAscending(terms)
	if oldBytes <= 0 {
		return out
	}
	scale := 1.0
	if oldBytes > avail {
		scale = avail / oldBytes
	}
	for r, f := range old {
		if !keep(r) {
			continue
		}
		if g := f * scale; g > 1e-9 {
			out[r] = g
		}
	}
	return boundState(out)
}

// sumAscending adds the terms smallest first. The terms come from a map
// walk; a fixed order keeps the rounding, and so every prediction, the
// same from run to run.
func sumAscending(terms []float64) float64 {
	slices.Sort(terms)
	var sum float64
	for _, t := range terms {
		sum += t
	}
	return sum
}

// maxStateEntries bounds the cache-state map. Long Seq chains (e.g. a
// partitioned join with thousands of per-cluster sub-joins) would
// otherwise accumulate an entry per region ever touched, making
// evaluation quadratic. Retention keeps the entries holding the most
// resident bytes — the only ones that can change a later prediction.
const maxStateEntries = 96

func boundState(st state) state {
	if len(st) <= maxStateEntries {
		return st
	}
	type entry struct {
		r     *region.Region
		bytes float64
	}
	entries := make([]entry, 0, len(st))
	for r, f := range st {
		entries = append(entries, entry{r, f * float64(r.Size())})
	}
	// Deterministic order: bytes descending, then region name — map
	// iteration order must not influence predictions.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].bytes != entries[j].bytes {
			return entries[i].bytes > entries[j].bytes
		}
		return entries[i].r.Name < entries[j].r.Name
	})
	out := make(state, maxStateEntries)
	for _, e := range entries[:maxStateEntries] {
		out[e.r] = st[e.r]
	}
	return out
}

// related reports whether a is an ancestor or descendant of b (or equal):
// their byte ranges overlap through the sub-region chain.
func related(a, b *region.Region) bool {
	for p := a; p != nil; p = p.Parent {
		if p == b {
			return true
		}
	}
	for p := b; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// stateAdjusted implements Eq. 5.1: how many misses remain given that a
// fraction rho of the pattern's region is already cached.
//
//   - rho ≥ 1: the region is entirely resident, no misses occur.
//   - random patterns with 0 < rho < 1: each access finds its line
//     resident with probability rho, so misses scale by (1 − rho).
//   - sequential patterns with 0 < rho < 1: the resident fraction would
//     help only if it were the head of the region; since that is
//     unknown, no benefit is assumed.
func stateAdjusted(lp levelParams, st state, p pattern.Pattern) Misses {
	cold := basicMisses(lp, p)
	regions := p.Regions()
	if len(regions) != 1 {
		return cold
	}
	rho := effectiveRho(st, regions[0])
	if rho <= 0 {
		return cold
	}
	if rho >= 1 {
		return Misses{}
	}
	// r_acc over an oversized hot set: the cold count is dominated by
	// steady-state misses whose rate is already determined by the
	// cache-to-hot-set ratio; prior residency only saves (part of) the
	// compulsory first-touch misses of the ℓ distinct lines.
	if ra, ok := p.(pattern.RAcc); ok {
		lines := costmath.RAccLines(lp, ra.R.N, ra.R.W, float64(pattern.Used(ra.U, ra.R)), ra.Count)
		if lines > lp.L {
			saved := rho * lines
			out := cold
			out.Rnd -= saved
			if out.Rnd < 0 {
				out.Rnd = 0
			}
			return out
		}
	}
	if isRandomPattern(p) {
		return cold.Scale(1 - rho)
	}
	return cold
}

// effectiveRho returns the resident fraction of r, taking the sub-region
// parent chain into account: if an ancestor region is resident with
// fraction ρ, a uniformly chosen line of the sub-region is resident with
// (at least) probability ρ. This extension lets recursive patterns such
// as quick-sort inherit residency from the enclosing segment.
func effectiveRho(st state, r *region.Region) float64 {
	rho := st[r]
	for p := r.Parent; p != nil; p = p.Parent {
		if f := st[p]; f > rho {
			rho = f
		}
	}
	return rho
}

// isRandomPattern reports whether Eq. 5.1 grants the pattern partial
// benefit from a partially resident region (the paper's
// {r_trav, rr_trav, r_acc}; a nest with random inner cursors reduces to
// those).
func isRandomPattern(p pattern.Pattern) bool {
	switch q := p.(type) {
	case pattern.RTrav, pattern.RRTrav, pattern.RAcc:
		return true
	case pattern.Nest:
		return q.Inner != pattern.InnerSTrav
	default:
		return false
	}
}

// resultState returns the cache state a basic pattern leaves behind: the
// fraction of its region that fits in the (possibly scaled) cache.
func resultState(lp levelParams, p pattern.Pattern) state {
	regions := p.Regions()
	if len(regions) != 1 {
		return state{}
	}
	r := regions[0]
	size := float64(r.Size())
	if size <= 0 {
		return state{}
	}
	rho := lp.C / size
	if rho > 1 {
		rho = 1
	}
	return state{r: rho}
}

// footprint returns F(P): the number of cache lines the pattern
// potentially revisits (Section 5.2). Plain streams never revisit a line
// once access moved past it and thus occupy a single line at a time.
func footprint(lp levelParams, p pattern.Pattern) float64 {
	switch q := p.(type) {
	case pattern.STrav:
		return 1
	case pattern.RTrav:
		if !costmath.GapSmall(q.R.W, float64(pattern.Used(q.U, q.R)), lp.B) {
			// Each line serves exactly one access; nothing is revisited.
			return 1
		}
		return costmath.LinesCovered(q.R.Size(), lp.B)
	case pattern.RSTrav:
		return costmath.LinesCovered(q.R.Size(), lp.B)
	case pattern.RRTrav:
		return costmath.LinesCovered(q.R.Size(), lp.B)
	case pattern.RAcc:
		return costmath.LinesCovered(q.R.Size(), lp.B)
	case pattern.Nest:
		return costmath.LinesCovered(q.R.Size(), lp.B)
	case pattern.Seq:
		// Sub-patterns run one after another; at any time at most one of
		// them occupies the cache.
		var max float64
		for _, sub := range q {
			if f := footprint(lp, sub); f > max {
				max = f
			}
		}
		return max
	case pattern.Conc:
		var sum float64
		for _, sub := range q {
			sum += footprint(lp, sub)
		}
		return sum
	default:
		panic("cost: footprint of unknown pattern")
	}
}
