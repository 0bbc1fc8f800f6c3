package costir

import (
	"repro/internal/hardware"
)

// This file holds the grid-batch entry points of the compiled-pattern
// evaluator. A grid sweep (internal/sweep, the server's multi-profile
// batches, `costmodel eval -profiles`) evaluates one compiled program
// on several hierarchies; doing that point-at-a-time through Evaluate
// checks one evaluator out of the pool per point. EvaluateBatch checks
// one evaluator out once, sized for the deepest hierarchy of the grid,
// and runs every point on it — the per-point work is exactly one
// (*evaluator).run, so results are bit-identical to per-point Evaluate
// and steady state allocates nothing per point.

// EvaluateBatch computes the expected misses of the compiled pattern
// on every hierarchy of hs, appending len(h.Levels) Misses per
// hierarchy to dst in grid order and returning it. Results are
// bit-identical to calling Evaluate per hierarchy. EvaluateBatch is
// safe for concurrent use on the same Program.
func (p *Program) EvaluateBatch(hs []*hardware.Hierarchy, dst []Misses) []Misses {
	maxL := 0
	for _, h := range hs {
		if len(h.Levels) > maxL {
			maxL = len(h.Levels)
		}
	}
	if maxL == 0 {
		return dst
	}
	ev := getEvaluator(p, maxL)
	for _, h := range hs {
		ev.run(p, h.Levels)
		dst = append(dst, ev.miss[:len(h.Levels)]...)
	}
	evalPool.Put(ev)
	return dst
}
