package queryplan

import (
	"fmt"
	"sort"

	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/pattern"
)

// Pricing is phase 2 of the optimizer and the consumer the paper built
// its model for: every physical alternative lowers to one access
// pattern, compiles once into the flat cost IR, and is ranked by its
// predicted total time T = T_mem + T_cpu (Eq. 6.1) on a hardware
// hierarchy. Rank runs the whole path for a query (search, lower,
// dedup, compile, price, sort); Rescore prices given plan trees; a
// Planner ranks the physical alternatives of a single join, aggregate
// or distinct. A compiled Candidate re-scores on any other hierarchy
// (ScoreOn) without re-compiling.

// Candidate is one physical alternative before costing: the algorithm
// (or, for whole plans, the plan signature), its access pattern
// compiled once into the flat cost IR, and the hardware-independent CPU
// estimate.
type Candidate struct {
	Algorithm Algorithm
	Pattern   pattern.Pattern
	// Compiled is the pattern's flat-IR program, shared by every
	// scoring pass.
	Compiled *costir.Program
	// Fanout is the partition count for partitioned algorithms.
	Fanout int64
	// CPUNS is the estimated pure CPU time (Eq. 6.1's T_cpu),
	// hardware-profile-independent by the paper's calibration model.
	CPUNS float64
}

// on prices the compiled candidate on one hierarchy.
func (c Candidate) on(h *hardware.Hierarchy) CostedPlan {
	return CostedPlan{Candidate: c, MemNS: c.Compiled.MemoryTimeNS(h)}
}

// ScoreOn costs every candidate on the hierarchy and returns the plans
// sorted cheapest first. Candidates are evaluated from their compiled
// programs; no pattern is re-compiled.
func ScoreOn(h *hardware.Hierarchy, cands []Candidate) []CostedPlan {
	plans := make([]CostedPlan, len(cands))
	for i, c := range cands {
		plans[i] = c.on(h)
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].TotalNS() < plans[j].TotalNS() })
	return plans
}

// CostedPlan is one physical alternative priced on a hierarchy. Its
// Candidate re-scores on any other hierarchy through ScoreOn.
type CostedPlan struct {
	Candidate
	// MemNS is the predicted memory access time (Eq. 3.1).
	MemNS float64
}

// TotalNS returns the predicted total time (Eq. 6.1).
func (p CostedPlan) TotalNS() float64 { return p.MemNS + p.CPUNS }

// String renders "algorithm: T=... (mem ..., cpu ...)".
func (p CostedPlan) String() string {
	return fmt.Sprintf("%-22s T=%8.2fms (mem %8.2fms, cpu %8.2fms)",
		p.Algorithm, p.TotalNS()/1e6, p.MemNS/1e6, p.CPUNS/1e6)
}

// PricedPlan pairs one costed ranking entry (Algorithm holds the plan
// signature) with the physical plan tree it was lowered from — the raw
// material a plan cache turns into relabelable recipes (NewRecipe).
type PricedPlan struct {
	Plan CostedPlan
	Tree *Plan
}

// Rank searches the physical plans of q on h with the given options,
// lowers each to its compound pattern, compiles it once, and returns
// the plans priced on h, cheapest first (stable, so ties keep search
// order). Quick-sort patterns are pruned at h's smallest cache
// capacity, and the DP search prices its pruning bounds on h.
// Cost-equivalent plans collapse onto the first searched one (see
// rankTrees).
func Rank(h *hardware.Hierarchy, q Query, so SearchOptions) ([]PricedPlan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	trees, err := Search(q, Options{CPU: DefaultCPU(), PruneBytes: h.MinCapacity(), Search: so}, h)
	if err != nil {
		return nil, err
	}
	return rankTrees(h, trees)
}

// rankTrees lowers, compiles and prices the given plan trees on h
// (which must validate), cheapest first.
//
// Cost-equivalent plans collapse: two plans whose patterns share a
// canonical form and whose CPU estimates agree — e.g. the two build
// sides of a symmetric hash join — are priced identically on every
// hierarchy, so only the first one in tree order is kept.
func rankTrees(h *hardware.Hierarchy, trees []*Plan) ([]PricedPlan, error) {
	prune := h.MinCapacity()
	ranked := make([]PricedPlan, 0, len(trees))
	seen := make(map[string]bool, len(trees))
	for _, t := range trees {
		p, ok, err := price(h, prune, t, seen)
		if err != nil {
			return nil, err
		}
		if ok {
			ranked = append(ranked, PricedPlan{Plan: p, Tree: t})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Plan.TotalNS() < ranked[j].Plan.TotalNS() })
	return ranked, nil
}

// Rescore lowers, compiles and prices the given plan trees on h, one
// result per tree in input order — no search, no dedup, no sorting. It
// is the plan cache's re-validation primitive: recipes re-bound to a
// drifted query are re-priced at IR-evaluator speed instead of
// re-running the search. Each result is bit-identical to the entry
// Rank reports for the same tree on the same hierarchy.
func Rescore(h *hardware.Hierarchy, trees []*Plan) ([]CostedPlan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	prune := h.MinCapacity()
	out := make([]CostedPlan, len(trees))
	for i, t := range trees {
		var err error
		if out[i], _, err = price(h, prune, t, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// price lowers one plan tree, compiles its pattern and prices it on h.
// With a non-nil seen set, a plan cost-equivalent to one already seen
// (same canonical pattern, same CPU estimate) is skipped: ok is false.
func price(h *hardware.Hierarchy, prune int64, t *Plan, seen map[string]bool) (CostedPlan, bool, error) {
	pat, cpuNS, err := t.Lower(DefaultCPU(), prune)
	if err != nil {
		return CostedPlan{}, false, fmt.Errorf("queryplan: lowering plan %s: %w", t.Signature(), err)
	}
	// One canonicalization yields both the dedup key and the program;
	// without a seen set no key is rendered at all.
	var prog *costir.Program
	if seen == nil {
		prog, err = costir.Compile(pat)
	} else {
		prog, err = costir.CompileIf(pat, func(canon string) bool {
			key := fmt.Sprintf("%s|%.17g", canon, cpuNS)
			if seen[key] {
				return false
			}
			seen[key] = true
			return true
		})
	}
	if err != nil {
		return CostedPlan{}, false, fmt.Errorf("queryplan: compiling plan %s: %w", t.Signature(), err)
	}
	if prog == nil {
		return CostedPlan{}, false, nil
	}
	c := Candidate{Algorithm: Algorithm(t.Signature()), Pattern: pat, Compiled: prog, Fanout: t.Fanout, CPUNS: cpuNS}
	return c.on(h), true, nil
}

// Planner ranks the physical alternatives of a single operator — an
// equi-join, a grouping, a duplicate elimination — on one hierarchy,
// with the default CPU constants.
type Planner struct {
	hier  *hardware.Hierarchy
	prune int64 // quick-sort recursion bound: the smallest cache capacity
}

// NewPlanner creates a planner for the hierarchy, which must validate.
func NewPlanner(h *hardware.Hierarchy) (*Planner, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &Planner{hier: h, prune: h.MinCapacity()}, nil
}

// candidates lowers each one-operator plan over base relations and
// compiles its pattern once.
func (pl *Planner) candidates(plans []*Plan) ([]Candidate, error) {
	cands := make([]Candidate, len(plans))
	for i, p := range plans {
		pat, cpuNS, err := p.Lower(DefaultCPU(), pl.prune)
		if err != nil {
			return nil, fmt.Errorf("queryplan: lowering %s: %w", p.Algorithm, err)
		}
		prog, err := costir.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("queryplan: compiling %s: %w", p.Algorithm, err)
		}
		cands[i] = Candidate{Algorithm: p.Algorithm, Pattern: pat, Compiled: prog, Fanout: p.Fanout, CPUNS: cpuNS}
	}
	return cands, nil
}

// scanOf is the unfiltered scan of a base relation.
func scanOf(r Relation) *Plan { return &Plan{Kind: OpScan, Rel: r, Filter: 1, Out: r} }

// JoinCandidates enumerates the physical alternatives of an equi-join
// U ⋈ V with the given estimated output cardinality, compiling each
// candidate's access pattern exactly once. Cost nothing yet: pass the
// result to ScoreOn for each hardware profile of interest.
func (pl *Planner) JoinCandidates(u, v Relation, outTuples int64) ([]Candidate, error) {
	out := Relation{Name: "W", Tuples: outTuples, Width: joinWidth(u.Width, v.Width)}
	join := func(alg Algorithm, fanout int64) *Plan {
		return &Plan{Kind: OpJoin, Algorithm: alg, Fanout: fanout,
			Children: []*Plan{scanOf(u), scanOf(v)}, Out: out}
	}
	// Nested loop is always applicable; the merge join sorts whichever
	// input is not key-ordered.
	plans := []*Plan{join(NestedLoopJoin, 0), join(mergeAlgorithm(u.Sorted, v.Sorted), 0), join(HashJoin, 0)}
	for _, m := range DefaultFanouts() {
		if partitionable(m, u.Tuples, v.Tuples) {
			plans = append(plans, join(PartitionedHashJoin, m))
		}
	}
	return pl.candidates(plans)
}

// JoinPlans enumerates and costs the physical alternatives of an
// equi-join U ⋈ V on the planner's own hierarchy, sorted cheapest
// first.
func (pl *Planner) JoinPlans(u, v Relation, outTuples int64) ([]CostedPlan, error) {
	cands, err := pl.JoinCandidates(u, v, outTuples)
	if err != nil {
		return nil, err
	}
	return ScoreOn(pl.hier, cands), nil
}

// AggregateCandidates enumerates hash- vs sort-based grouping of u
// into `groups` result groups, compiling each pattern once. Sort-based
// grouping sorts u only if it is not already key-ordered.
func (pl *Planner) AggregateCandidates(u Relation, groups int64) ([]Candidate, error) {
	return pl.candidates(aggVariants([]*Plan{scanOf(u)}, OpAggregate, groups))
}

// DistinctCandidates enumerates hash- vs sort-based duplicate
// elimination with the given estimated distinct count, compiling each
// pattern once. Sort-based elimination sorts u only if it is not
// already key-ordered.
func (pl *Planner) DistinctCandidates(u Relation, distinct int64) ([]Candidate, error) {
	return pl.candidates(aggVariants([]*Plan{scanOf(u)}, OpDistinct, distinct))
}
