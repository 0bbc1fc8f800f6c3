package queryplan

import (
	"fmt"
	"math/bits"
)

// Recipe is the relabelable skeleton of one physical plan: the
// operator tree with every algorithm choice kept and every
// query-specific value dropped — scan leaves hold canonical relation
// positions (per Fingerprint.Perm) instead of names, and output
// estimates are omitted entirely. Bind re-attaches a recipe to any
// query of the same shape, recomputing estimates under that query's
// parameters, which is what lets a plan cache serve a renamed or
// parameter-drifted query from a cached search result (docs/serving.md).
type Recipe struct {
	Kind      OpKind
	Algorithm Algorithm
	// Fanout is the partition count of a partitioned hash join.
	Fanout int64
	// Pos is the canonical relation position of an OpScan leaf.
	Pos      int
	Children []*Recipe
}

// NewRecipe extracts p's skeleton relative to the query (and
// fingerprint) it was searched for, rewriting scan leaves to canonical
// positions. Relation names identify scan leaves, so q must name its
// relations uniquely (Validate enforces this).
func NewRecipe(p *Plan, q Query, fp Fingerprint) (*Recipe, error) {
	if len(fp.Perm) != len(q.Relations) {
		return nil, fmt.Errorf("queryplan: fingerprint covers %d relations, query has %d", len(fp.Perm), len(q.Relations))
	}
	idx := make(map[string]int, len(q.Relations))
	for i, r := range q.Relations {
		idx[r.Name] = i
	}
	inv := make([]int, len(fp.Perm))
	for pos, i := range fp.Perm {
		inv[i] = pos
	}
	return newRecipeNode(p, idx, inv)
}

func newRecipeNode(p *Plan, idx map[string]int, inv []int) (*Recipe, error) {
	r := &Recipe{Kind: p.Kind, Algorithm: p.Algorithm, Fanout: p.Fanout}
	if p.Kind == OpScan {
		i, ok := idx[p.Rel.Name]
		if !ok {
			return nil, fmt.Errorf("queryplan: plan scans relation %q the query does not declare", p.Rel.Name)
		}
		r.Pos = inv[i]
		return r, nil
	}
	for _, c := range p.Children {
		cr, err := newRecipeNode(c, idx, inv)
		if err != nil {
			return nil, err
		}
		r.Children = append(r.Children, cr)
	}
	return r, nil
}

// Bind rebuilds the physical plan tree for q, a query of the recipe's
// shape: scan leaves resolve through fp.Perm, and every output
// estimate (cardinality, width, sortedness) is recomputed bottom-up
// under q's parameters from the operator table (ops.go), exactly as
// the DP search's materialization computes them — including the
// subset-mask intermediate names the IR canonicalizer dedups regions
// by — so binding a recipe back to the query it was extracted from
// reproduces the searched plan node-for-node, and its lowered pattern
// prices bit-identically.
func (r *Recipe) Bind(q Query, fp Fingerprint) (*Plan, error) {
	if len(fp.Perm) != len(q.Relations) {
		return nil, fmt.Errorf("queryplan: fingerprint covers %d relations, query has %d", len(fp.Perm), len(q.Relations))
	}
	b := binder{q: q, perm: fp.Perm}
	p, mask, err := b.bind(r)
	if err != nil {
		return nil, err
	}
	if full := uint32(1)<<len(q.Relations) - 1; mask != full {
		return nil, fmt.Errorf("queryplan: recipe covers %d of %d relations", bits.OnesCount32(mask), len(q.Relations))
	}
	return p, nil
}

type binder struct {
	q    Query
	perm []int
}

// bind rebuilds one recipe node, returning the plan subtree and the
// bitmask of original relation indices it covers.
func (b *binder) bind(r *Recipe) (*Plan, uint32, error) {
	switch r.Kind {
	case OpScan:
		if r.Pos < 0 || r.Pos >= len(b.perm) {
			return nil, 0, fmt.Errorf("queryplan: recipe scan position %d outside %d relations", r.Pos, len(b.perm))
		}
		i := b.perm[r.Pos]
		return b.q.scanPlan(i), uint32(1) << i, nil

	case OpJoin:
		if len(r.Children) != 2 {
			return nil, 0, fmt.Errorf("queryplan: recipe join with %d children", len(r.Children))
		}
		left, lm, err := b.bind(r.Children[0])
		if err != nil {
			return nil, 0, err
		}
		right, rm, err := b.bind(r.Children[1])
		if err != nil {
			return nil, 0, err
		}
		if lm&rm != 0 {
			return nil, 0, fmt.Errorf("queryplan: recipe joins overlapping relation sets")
		}
		i, err := operatorOf(OpJoin, r.Algorithm)
		if err != nil {
			return nil, 0, err
		}
		mask := lm | rm
		outN, outW := b.q.joinEstimate(left.Out.Tuples, left.Out.Width, right.Out.Tuples, right.Out.Width, lm, rm)
		return &Plan{
			Kind: OpJoin, Algorithm: r.Algorithm, Fanout: r.Fanout,
			Children: []*Plan{left, right},
			Out: Relation{
				Name:   subsetName(mask),
				Tuples: outN, Width: outW, Sorted: operators[i].outSorted(left.Out.Sorted),
			},
		}, mask, nil

	case OpAggregate, OpDistinct, OpSort:
		if len(r.Children) != 1 {
			return nil, 0, fmt.Errorf("queryplan: recipe unary operator with %d children", len(r.Children))
		}
		child, cm, err := b.bind(r.Children[0])
		if err != nil {
			return nil, 0, err
		}
		var groups int64
		switch r.Kind {
		case OpAggregate:
			groups = b.q.GroupBy
		case OpDistinct:
			groups = b.q.Distinct
		}
		if r.Kind != OpSort && groups <= 0 {
			return nil, 0, fmt.Errorf("queryplan: recipe has a grouping operator the query does not ask for")
		}
		i, err := operatorOf(r.Kind, r.Algorithm)
		if err != nil {
			return nil, 0, err
		}
		return &Plan{Kind: r.Kind, Algorithm: r.Algorithm, Groups: groups,
			Children: []*Plan{child}, Out: operators[i].unaryOut(child.Out, groups)}, cm, nil
	}
	return nil, 0, fmt.Errorf("queryplan: unknown recipe operator kind %d", r.Kind)
}
