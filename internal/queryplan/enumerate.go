package queryplan

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
)

// Options parameterize plan enumeration.
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
	// MaxPlans caps the number of enumerated plans; exceeding it is an
	// error (never a silent truncation). 0 means DefaultMaxPlans.
	MaxPlans int
	// Search selects and tunes the plan-space search strategy. Only
	// Search (dp.go) honours it; Enumerate always runs the exhaustive
	// left-deep path.
	Search SearchOptions
}

// Enumeration defaults.
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

// Enumerate expands a query into its physical alternatives: every
// left-deep, cross-product-free join order over the join graph, every
// join-algorithm assignment (merge join when both inputs arrive sorted,
// sort-merge and hash joins always, partitioned hash joins per eligible
// fan-out, nested-loop joins for small inputs), and hash- vs sort-based
// variants of the query's aggregate or distinct. Plans arrive in a
// deterministic order; Rank prices them.
//
// Enumerate is the exhaustive path: complete for small queries but
// factorial in the relation count, so larger join graphs trip the
// MaxPlans cap. Production callers go through Search, which defaults to
// the memoized DP search (dp.go) and keeps this enumerator available as
// the SearchExhaustive test oracle.
func Enumerate(q Query, opts Options) ([]*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()

	e := enumerator{q: q, opts: opts}
	leaves := make([]*Plan, len(q.Relations))
	for i := range q.Relations {
		leaves[i] = e.scanPlan(i)
	}

	var joined []*Plan
	if len(q.Relations) == 1 {
		joined = leaves
	} else {
		for i := range leaves {
			if err := e.extend(leaves[i], 1<<i, leaves, &joined); err != nil {
				return nil, err
			}
		}
	}

	plans := joined
	if q.GroupBy > 0 {
		plans = e.aggVariants(plans, OpAggregate, q.GroupBy)
	}
	if q.Distinct > 0 {
		plans = e.aggVariants(plans, OpDistinct, q.Distinct)
	}
	if q.SortBy {
		plans = e.sortVariants(plans)
	}
	if len(plans) > opts.MaxPlans {
		return nil, fmt.Errorf("queryplan: %d candidate plans exceed the cap of %d (shrink the query or raise Options.MaxPlans)",
			len(plans), opts.MaxPlans)
	}
	return plans, nil
}

type enumerator struct {
	q    Query
	opts Options
}

// scanPlan builds the leaf for relation i, folding in its filter and
// projection.
func (e *enumerator) scanPlan(i int) *Plan {
	rel := e.q.Relations[i]
	sel := e.q.filter(i)
	proj := e.q.projection(i)
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

// extend grows a left-deep prefix by every connected relation and every
// algorithm choice, collecting complete plans into acc.
func (e *enumerator) extend(cur *Plan, mask int, leaves []*Plan, acc *[]*Plan) error {
	if mask == 1<<len(leaves)-1 {
		*acc = append(*acc, cur)
		if len(*acc) > e.opts.MaxPlans {
			return fmt.Errorf("queryplan: join-order enumeration exceeds the cap of %d plans (shrink the query or raise Options.MaxPlans)",
				e.opts.MaxPlans)
		}
		return nil
	}
	for j := range leaves {
		if mask&(1<<j) != 0 || !e.connectedTo(mask, j) {
			continue
		}
		out := e.joinOutput(cur, mask, j)
		for _, node := range e.joinNodes(cur, leaves[j], out) {
			if err := e.extend(node, mask|1<<j, leaves, acc); err != nil {
				return err
			}
		}
	}
	return nil
}

// connectedTo reports whether relation j shares a join edge with the
// set of relations in mask.
func (e *enumerator) connectedTo(mask, j int) bool {
	for _, edge := range e.q.Joins {
		if edge.Left == j && mask&(1<<edge.Right) != 0 {
			return true
		}
		if edge.Right == j && mask&(1<<edge.Left) != 0 {
			return true
		}
	}
	return false
}

// joinOutput estimates the output relation of joining the prefix (over
// mask) with relation j: |cur|·|R_j| scaled by every edge connecting j
// into the prefix, widths concatenated minus the shared key.
func (e *enumerator) joinOutput(cur *Plan, mask, j int) Relation {
	card := float64(cur.Out.Tuples) * float64(e.leafTuples(j))
	for _, edge := range e.q.Joins {
		if edge.Left == j && mask&(1<<edge.Right) != 0 {
			card *= edge.Selectivity
		}
		if edge.Right == j && mask&(1<<edge.Left) != 0 {
			card *= edge.Selectivity
		}
	}
	width := cur.Out.Width + e.leafWidth(j) - engine.KeyWidth
	if width < engine.KeyWidth {
		width = engine.KeyWidth
	}
	return Relation{
		Name:   fmt.Sprintf("T%d", bits.OnesCount(uint(mask))),
		Tuples: clampTuples(card),
		Width:  width,
	}
}

func (e *enumerator) leafTuples(j int) int64 {
	return clampTuples(e.q.filter(j) * float64(e.q.Relations[j].Tuples))
}

func (e *enumerator) leafWidth(j int) int64 {
	if u := e.q.projection(j); u > 0 {
		if u < engine.KeyWidth {
			return engine.KeyWidth
		}
		return u
	}
	return e.q.Relations[j].Width
}

// joinNodes builds one join node per applicable algorithm.
func (e *enumerator) joinNodes(left, right *Plan, out Relation) []*Plan {
	var nodes []*Plan
	add := func(alg Algorithm, fanout int64, sorted bool) {
		o := out
		o.Sorted = sorted
		nodes = append(nodes, &Plan{
			Kind: OpJoin, Algorithm: alg, Fanout: fanout,
			Children: []*Plan{left, right}, Out: o,
		})
	}

	nl, nr := left.Out.Tuples, right.Out.Tuples
	if left.Out.Sorted && right.Out.Sorted {
		// Both inputs already key-ordered: a sort-merge join would sort
		// nothing, so only the plain merge join is emitted.
		add(MergeJoin, 0, true)
	} else {
		add(SortMergeJoin, 0, true)
	}
	add(HashJoin, 0, false)
	for _, m := range e.opts.Fanouts {
		if m*8 > nl || m*8 > nr {
			continue // degenerate clusters
		}
		add(PartitionedHashJoin, m, false)
	}
	if e.opts.NLJMaxInner > 0 && (nl <= e.opts.NLJMaxInner || nr <= e.opts.NLJMaxInner) {
		// The outer relation's order survives a nested-loop join.
		add(NestedLoopJoin, 0, left.Out.Sorted)
	}
	return nodes
}

// aggVariants wraps every plan in the hash- and sort-based variant of
// the grouping operator (OpAggregate or OpDistinct).
func (e *enumerator) aggVariants(plans []*Plan, kind OpKind, groups int64) []*Plan {
	hashAlg, sortAlg := HashAggregate, SortAggregate
	outName := "A"
	if kind == OpDistinct {
		hashAlg, sortAlg = HashDistinct, SortDistinct
		outName = "D"
	}
	out := make([]*Plan, 0, 2*len(plans))
	for _, p := range plans {
		hashOut := Relation{Name: outName, Tuples: groups, Width: p.Out.Width}
		if kind == OpAggregate {
			// The hash-aggregate's result is its aggregation table.
			agg := engine.AggRegionFor(outName, groups)
			hashOut = Relation{Name: outName, Tuples: agg.N, Width: agg.W}
		}
		out = append(out, &Plan{
			Kind: kind, Algorithm: hashAlg, Groups: groups,
			Children: []*Plan{p}, Out: hashOut,
		})
		sortName := "G"
		if kind == OpDistinct {
			sortName = outName
		}
		out = append(out, &Plan{
			Kind: kind, Algorithm: sortAlg, Groups: groups,
			Children: []*Plan{p},
			Out:      Relation{Name: sortName, Tuples: groups, Width: p.Out.Width, Sorted: true},
		})
	}
	return out
}

// sortVariants adds the final order-by: plans whose output is already
// sorted pass through unchanged, the rest gain an in-place sort node.
func (e *enumerator) sortVariants(plans []*Plan) []*Plan {
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
