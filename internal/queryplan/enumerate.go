package queryplan

import "repro/internal/engine"

// Options parameterize the plan-space search.
type Options struct {
	// CPU holds the per-tuple CPU cost constants; the zero value means
	// DefaultCPU.
	CPU CPUCosts
	// PruneBytes bounds quick-sort pattern recursion (pass the smallest
	// cache capacity; 0 forces full recursion — tests only).
	PruneBytes int64
	// Fanouts are the candidate partition counts for partitioned hash
	// joins; nil means DefaultFanouts.
	Fanouts []int64
	// NLJMaxInner enumerates a nested-loop join only when either input
	// has at most this many tuples (quadratic CPU makes larger inner
	// relations pointless); 0 means DefaultNLJMaxInner, negative
	// disables nested-loop candidates entirely.
	NLJMaxInner int64
	// MaxPlans caps the number of searched plans; exceeding it is an
	// error (never a silent truncation). 0 means DefaultMaxPlans.
	MaxPlans int
	// Search tunes the DP plan-space search (dp.go).
	Search SearchOptions
}

// Search defaults.
const (
	DefaultNLJMaxInner = 1024
	DefaultMaxPlans    = 4096
)

// DefaultFanouts are the partitioned-hash-join fan-outs every search and
// the single-operator Planner consider: around the TLB entry count and
// the L1/L2 line budgets.
func DefaultFanouts() []int64 { return []int64{16, 64, 256} }

func (o Options) normalized() Options {
	if o.CPU == (CPUCosts{}) {
		o.CPU = DefaultCPU()
	}
	if o.Fanouts == nil {
		o.Fanouts = DefaultFanouts()
	}
	if o.NLJMaxInner == 0 {
		o.NLJMaxInner = DefaultNLJMaxInner
	}
	if o.NLJMaxInner < 0 {
		o.NLJMaxInner = 0
	}
	if o.MaxPlans == 0 {
		o.MaxPlans = DefaultMaxPlans
	}
	return o
}

// scanPlan builds the leaf for relation i, folding in its filter and
// projection.
func (q Query) scanPlan(i int) *Plan {
	rel := q.Relations[i]
	sel := q.filter(i)
	proj := q.projection(i)
	out := rel
	if sel < 1 || proj > 0 {
		width := rel.Width
		if proj > 0 {
			width = proj
		}
		if width < engine.KeyWidth {
			width = engine.KeyWidth
		}
		out = Relation{
			Name:   "σ" + rel.Name,
			Tuples: clampTuples(sel * float64(rel.Tuples)),
			Width:  width,
			Sorted: rel.Sorted, // a filter preserves the input order
		}
	}
	return &Plan{Kind: OpScan, Rel: rel, Filter: sel, Proj: proj, Out: out}
}

// aggVariants wraps every plan in each variant of the grouping
// operator (OpAggregate or OpDistinct), in operator-table order: hash-
// before sort-based.
func aggVariants(plans []*Plan, kind OpKind, groups int64) []*Plan {
	out := make([]*Plan, 0, 2*len(plans))
	for _, p := range plans {
		for i := range operators {
			if op := &operators[i]; op.kind == kind {
				out = append(out, &Plan{
					Kind: kind, Algorithm: op.alg, Groups: groups,
					Children: []*Plan{p}, Out: op.unaryOut(p.Out, groups),
				})
			}
		}
	}
	return out
}

// sortVariants adds the final order-by: plans whose output is already
// sorted pass through unchanged, the rest gain an in-place sort node.
func sortVariants(plans []*Plan) []*Plan {
	out := make([]*Plan, 0, len(plans))
	for _, p := range plans {
		if p.Out.Sorted {
			out = append(out, p)
			continue
		}
		sorted := p.Out
		sorted.Sorted = true
		out = append(out, &Plan{Kind: OpSort, Algorithm: QuickSort, Children: []*Plan{p}, Out: sorted})
	}
	return out
}
