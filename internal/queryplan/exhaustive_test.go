package queryplan

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/hardware"
)

// Enumerate expands a query into its physical alternatives: every
// left-deep, cross-product-free join order over the join graph, every
// join-algorithm assignment (merge join when both inputs arrive sorted,
// sort-merge and hash joins always, partitioned hash joins per eligible
// fan-out, nested-loop joins for small inputs), and hash- vs sort-based
// variants of the query's aggregate or distinct. Plans arrive in a
// deterministic order; rankTrees prices them.
//
// Enumerate is complete for small queries but factorial in the relation
// count, so larger join graphs trip the MaxPlans cap. It is the oracle
// the DP search (dp.go) is checked against and never runs in
// production, where Search is the only plan-space search.
func Enumerate(q Query, opts Options) ([]*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()

	e := enumerator{q: q, opts: opts}
	leaves := make([]*Plan, len(q.Relations))
	for i := range q.Relations {
		leaves[i] = q.scanPlan(i)
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
		plans = aggVariants(plans, OpAggregate, q.GroupBy)
	}
	if q.Distinct > 0 {
		plans = aggVariants(plans, OpDistinct, q.Distinct)
	}
	if q.SortBy {
		plans = sortVariants(plans)
	}
	if len(plans) > opts.MaxPlans {
		return nil, fmt.Errorf("queryplan: %d candidate plans exceed the cap of %d (shrink the query or raise Options.MaxPlans)",
			len(plans), opts.MaxPlans)
	}
	return plans, nil
}

// enumerator carries one exhaustive enumeration's query and options.
type enumerator struct {
	q    Query
	opts Options
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

// rankExhaustive is Rank over the exhaustive oracle's plan space:
// Enumerate in place of Search, then the production dedup, price and
// stable sort.
func rankExhaustive(h *hardware.Hierarchy, q Query) ([]PricedPlan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	trees, err := Enumerate(q, Options{CPU: DefaultCPU(), PruneBytes: h.MinCapacity()})
	if err != nil {
		return nil, err
	}
	return rankTrees(h, trees)
}
