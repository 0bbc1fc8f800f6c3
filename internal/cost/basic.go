package cost

import (
	"repro/internal/costmath"
	"repro/internal/pattern"
)

// basicMisses dispatches a basic pattern to its cache-miss formula from
// Section 4 of the paper (Eqs. 4.2 through 4.9), ignoring cache state
// (cold-cache counts). The arithmetic lives in internal/costmath, the
// formula kernel shared with the flat-IR evaluator (internal/costir),
// so the two evaluators cannot drift apart formula by formula.
func basicMisses(lp levelParams, p pattern.Pattern) Misses {
	switch q := p.(type) {
	case pattern.STrav:
		u := float64(pattern.Used(q.U, q.R))
		return costmath.Classify(costmath.STravCount(lp, q.R.N, q.R.W, u), !q.NoSeq)
	case pattern.RSTrav:
		m0 := costmath.STravCount(lp, q.R.N, q.R.W, float64(pattern.Used(q.U, q.R)))
		return costmath.Classify(costmath.RSTravCount(lp, m0, q.Repeats, q.Dir), !q.NoSeq)
	case pattern.RTrav:
		return Misses{Rnd: costmath.RTravCount(lp, q.R.N, q.R.W, float64(pattern.Used(q.U, q.R)))}
	case pattern.RRTrav:
		m0 := costmath.RTravCount(lp, q.R.N, q.R.W, float64(pattern.Used(q.U, q.R)))
		return Misses{Rnd: costmath.RRTravCount(lp, m0, q.Repeats)}
	case pattern.RAcc:
		return Misses{Rnd: costmath.RAccCount(lp, q.R.N, q.R.W, float64(pattern.Used(q.U, q.R)), q.Count)}
	case pattern.Nest:
		return costmath.NestCounts(lp, q.R.N, q.R.W, float64(pattern.Used(q.U, q.R)), q.M, q.Inner, q.Count, q.Order, q.NoSeq)
	default:
		panic("cost: basicMisses called with compound pattern")
	}
}
