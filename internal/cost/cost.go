// Package cost implements the paper's generic database cost model for
// hierarchical memory systems. Given a hardware.Hierarchy and a
// pattern.Pattern describing an algorithm's data accesses, it predicts —
// per cache level — the number of sequential and random cache misses
// (Eqs. 4.2–4.9 of the paper), combines patterns executed sequentially or
// concurrently (Section 5), and scores misses with the per-level miss
// latencies to obtain the memory access time (Eq. 3.1) and total
// execution time (Eq. 6.1).
//
// All miss counts are expectations and therefore float64.
package cost

import (
	"repro/internal/costir"
	"repro/internal/costmath"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// Misses is the paper's per-level pair (M^s, M^r): expected sequential
// and random cache misses. It is shared (as a type alias) with the
// formula kernel internal/costmath and the flat-IR evaluator
// internal/costir, so results flow between the evaluators without
// conversion.
type Misses = costmath.Misses

// state describes the contents of one cache level as the fraction of
// each data region that is resident (the paper's set of ⟨R, ρ⟩ pairs).
// Regions not present are not cached at all.
type state map[*region.Region]float64

func (s state) clone() state {
	out := make(state, len(s))
	for r, f := range s {
		out[r] = f
	}
	return out
}

// LevelResult holds the predicted misses for one cache level.
type LevelResult struct {
	Level  hardware.Level
	Misses Misses
}

// MemoryTimeNS scores the level's misses with its latencies.
func (lr LevelResult) MemoryTimeNS() float64 {
	return lr.Misses.Seq*lr.Level.SeqMissLatency + lr.Misses.Rnd*lr.Level.RndMissLatency
}

// Result is the model's prediction for a pattern: misses per hierarchy
// level, in hierarchy order.
type Result struct {
	PerLevel []LevelResult
}

// MemoryTimeNS returns T_mem = Σ_i (Ms_i·ls_i + Mr_i·lr_i), Eq. 3.1.
func (r *Result) MemoryTimeNS() float64 {
	var t float64
	for _, lr := range r.PerLevel {
		t += lr.MemoryTimeNS()
	}
	return t
}

// Level returns the per-level result for the named level, and whether
// the hierarchy has such a level.
func (r *Result) Level(name string) (LevelResult, bool) {
	for _, lr := range r.PerLevel {
		if lr.Level.Name == name {
			return lr, true
		}
	}
	return LevelResult{}, false
}

// Model predicts cache misses and memory access costs for data access
// patterns on a specific hardware hierarchy.
type Model struct {
	hier *hardware.Hierarchy
}

// New creates a model for the hierarchy; the hierarchy must validate.
func New(h *hardware.Hierarchy) (*Model, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &Model{hier: h}, nil
}

// MustNew is New, panicking on error (for tests and examples).
func MustNew(h *hardware.Hierarchy) *Model {
	m, err := New(h)
	if err != nil {
		panic(err)
	}
	return m
}

// Hierarchy returns the model's hardware hierarchy.
func (m *Model) Hierarchy() *hardware.Hierarchy { return m.hier }

// Evaluate predicts the misses of p on cold caches. It is a thin
// wrapper over the flat-IR path: the pattern is compiled once
// (canonicalized, regions deduplicated) and evaluated by the
// allocation-free stack evaluator in internal/costir. Callers that
// evaluate the same pattern repeatedly — possibly across several
// hierarchies — should costir.Compile once themselves and call
// EvaluateCompiled (or Program.Evaluate directly).
func (m *Model) Evaluate(p pattern.Pattern) (*Result, error) {
	prog, err := costir.Compile(p)
	if err != nil {
		return nil, err
	}
	return m.EvaluateCompiled(prog), nil
}

// EvaluateCompiled predicts the misses of an already-compiled pattern
// on cold caches.
func (m *Model) EvaluateCompiled(prog *costir.Program) *Result {
	misses := prog.Evaluate(m.hier, make([]Misses, 0, len(m.hier.Levels)))
	res := &Result{PerLevel: make([]LevelResult, len(m.hier.Levels))}
	for i, spec := range m.hier.Levels {
		res.PerLevel[i] = LevelResult{Level: spec, Misses: misses[i]}
	}
	return res
}

// EvaluateTree predicts the misses of p on cold caches using the
// original recursive tree walker. It is retained as the reference
// oracle the IR evaluator is property-tested against, and as the engine
// behind Explain, which needs the per-node view the flat program does
// not expose. Production callers should use Evaluate.
func (m *Model) EvaluateTree(p pattern.Pattern) (*Result, error) {
	return m.walk(p, nil)
}

// walk runs the tree walker over p once per hierarchy level, starting
// from empty caches, with rec (nil for none) recording Explain rows.
func (m *Model) walk(p pattern.Pattern, rec *recorder) (*Result, error) {
	if err := pattern.Validate(p); err != nil {
		return nil, err
	}
	res := &Result{PerLevel: make([]LevelResult, len(m.hier.Levels))}
	for i, spec := range m.hier.Levels {
		rec.startPass(i)
		mi, _ := evalLevel(paramsFor(spec), state{}, p, rec)
		res.PerLevel[i] = LevelResult{Level: spec, Misses: mi}
	}
	return res, nil
}

// MemoryTimeNS predicts T_mem for p on cold caches (Eq. 3.1).
func (m *Model) MemoryTimeNS(p pattern.Pattern) (float64, error) {
	res, err := m.Evaluate(p)
	if err != nil {
		return 0, err
	}
	return res.MemoryTimeNS(), nil
}

// TotalTimeNS predicts T = T_mem + T_cpu (Eq. 6.1) given the pure CPU
// time in nanoseconds (calibrated in-cache, as the paper does).
func (m *Model) TotalTimeNS(p pattern.Pattern, cpuNS float64) (float64, error) {
	tm, err := m.MemoryTimeNS(p)
	if err != nil {
		return 0, err
	}
	return tm + cpuNS, nil
}

// levelParams are the per-level quantities the formulas use, shared
// with the formula kernel. Capacity and line count are float64 because
// concurrent execution divides the cache among patterns in footprint
// proportion (Eq. 5.3), yielding fractional effective capacities.
type levelParams = costmath.Level

func paramsFor(spec hardware.Level) levelParams {
	return levelParams{
		C: float64(spec.Capacity),
		B: float64(spec.LineSize),
		L: float64(spec.Lines()),
	}
}
