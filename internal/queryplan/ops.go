package queryplan

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/region"
)

// The operator table. Each physical algorithm is defined here once, as
// Eq. 6.1 prices it: the Table 2 steps it runs over which operands,
// when a step is skipped, each step's CPU term, and the operator's
// output estimate. Plan.Lower (plan.go), the DP search's context-free
// bound and its materialized plans (dp.go), the grouping variants
// (enumerate.go), Recipe.Bind (recipe.go) and the single-operator
// Planner (rank.go) all read it.

// slot names an operand of an operator by its role. Steps name their
// operands by slot, so the DP bound picks and keys a step from operand
// geometry alone, and the lowerer resolves the same step to regions.
type slot uint8

const (
	slotLeft  slot = iota // the first (or only) input
	slotRight             // a join's second input
	slotOut               // the operator's output
	slotBuild             // the join input a hash join builds on
	slotProbe             // the other join input
	numSlots
)

// fillBuildProbe sets a join's build and probe slots from its left and
// right ones, whose inputs hold nl and nr tuples: a hash join builds on
// the smaller input, and on the right one on a tie.
func fillBuildProbe[T any](s *[numSlots]T, nl, nr int64) {
	s[slotBuild], s[slotProbe] = s[slotRight], s[slotLeft]
	if nl < nr {
		s[slotBuild], s[slotProbe] = s[slotLeft], s[slotRight]
	}
}

// stepKind names the Table 2 pattern one operator step runs.
type stepKind uint8

const (
	stepProject   stepKind = iota // s_trav(U, u) ⊙ s_trav(W): a filtered or projecting scan
	stepSort                      // in-place quick-sort of one region
	stepMerge                     // s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W)
	stepHash                      // hash_build(V, H) ⊕ hash_probe(U, H, W)
	stepNLJ                       // s_trav(U) ⊙ rs_trav(|U|, uni, V) ⊙ s_trav(W)
	stepPhj                       // partitions ⊕ per-cluster hash joins
	stepHashAgg                   // s_trav(U) ⊙ r_acc(|U|, W) into the aggregation table W
	stepGroup                     // s_trav(U) ⊙ s_trav(W): one pass over key-ordered input
	stepHashDedup                 // s_trav(U) ⊙ r_acc(|U|, H) ⊙ s_trav(W)
)

// arity is the number of operands the step runs over.
func (k stepKind) arity() int {
	switch k {
	case stepSort:
		return 1
	case stepProject, stepHashAgg, stepGroup, stepHashDedup:
		return 2
	}
	return 3
}

// emit appends the step's pattern over the operand regions r (in the
// step's argument order) to steps. m is a scan's bytes-used or a join's
// partition fan-out, prune bounds quick-sort recursion (see
// engine.QuickSortPattern). The ⊕ phases of a hash or partitioned hash
// join are spliced into the list.
func (k stepKind) emit(steps []pattern.Pattern, r [3]*region.Region, m, prune int64) []pattern.Pattern {
	switch k {
	case stepProject:
		return append(steps, engine.ProjectPattern(r[0], r[1], m))
	case stepSort:
		return append(steps, engine.QuickSortPattern(r[0], prune))
	case stepMerge:
		return append(steps, engine.MergeJoinPattern(r[0], r[1], r[2]))
	case stepHash:
		h := engine.HashRegionFor(r[2].Name+".h", r[1].N)
		return append(steps, engine.HashJoinPattern(r[0], r[1], h, r[2]).(pattern.Seq)...)
	case stepNLJ:
		return append(steps, engine.NestedLoopJoinPattern(r[0], r[1], r[2]))
	case stepPhj:
		return append(steps, engine.PartitionedHashJoinPattern(r[0], r[1], r[2], m).(pattern.Seq)...)
	case stepHashAgg:
		return append(steps, engine.HashAggregatePattern(r[0], r[1]))
	case stepGroup:
		return append(steps, pattern.Conc{pattern.STrav{R: r[0]}, pattern.STrav{R: r[1]}})
	case stepHashDedup:
		return append(steps, engine.HashDedupPattern(r[0], engine.HashRegionFor(r[1].Name+".h", r[0].N), r[1]))
	}
	panic(fmt.Sprintf("queryplan: unknown step kind %d", k))
}

// cpu is the step's CPU term over its operands' cardinalities (in the
// step's argument order).
func (k stepKind) cpu(c CPUCosts, n [3]float64) float64 {
	switch k {
	case stepProject:
		return c.Compare*n[0] + c.Move*n[1]
	case stepSort:
		return c.sortNS(n[0])
	case stepMerge:
		return c.Compare*(n[0]+n[1]) + c.Move*n[2]
	case stepHash:
		return c.Hash*(n[0]+n[1]) + c.Move*n[2]
	case stepNLJ:
		return c.Compare*n[0]*n[1] + c.Move*n[2]
	case stepPhj:
		return c.Partition*(n[0]+n[1]) + c.Hash*(n[0]+n[1]) + c.Move*n[2]
	case stepHashAgg, stepHashDedup:
		return c.Hash * n[0]
	case stepGroup:
		return c.Compare * n[0]
	}
	panic(fmt.Sprintf("queryplan: unknown step kind %d", k))
}

// placeholders names the stand-in regions the DP bound evaluates a step
// over in isolation. Only geometry matters to the cost, but ⊙ orders
// its operands by region name, so each kind keeps fixed names.
func (k stepKind) placeholders() [3]string {
	switch k {
	case stepSort:
		return [3]string{"s"}
	case stepMerge, stepNLJ:
		return [3]string{"l", "r", "o"}
	case stepHash:
		return [3]string{"p", "b", "o"}
	case stepPhj:
		return [3]string{"u", "v", "o"}
	}
	return [3]string{"i", "o"}
}

// step is one entry of an operator's step list: a pattern kind over
// operand slots, in the kind's argument order.
type step struct {
	kind stepKind
	args [3]slot
	// unlessSorted skips the step when its operand is already
	// key-ordered.
	unlessSorted bool
}

// operator is one physical algorithm's table entry.
type operator struct {
	alg  Algorithm
	kind OpKind
	// code names the operator in plan signatures (a partitioned hash
	// join appends its fan-out).
	code  string
	steps []step
	// sorted marks a key-ordered output; keepsLeft passes the left
	// input's order through instead.
	sorted, keepsLeft bool
	// inPlace marks an operator whose output is its input region.
	inPlace bool
	// name is a grouping operator's output relation name; aggTable
	// marks an output that is the aggregation table itself.
	name     string
	aggTable bool
}

var (
	sortLeft  = step{kind: stepSort, args: [3]slot{slotLeft}, unlessSorted: true}
	sortRight = step{kind: stepSort, args: [3]slot{slotRight}, unlessSorted: true}
	joinArgs  = [3]slot{slotLeft, slotRight, slotOut}
	unaryArgs = [3]slot{slotLeft, slotOut}
	// scanStep is a filtered or projecting scan's one step. An
	// unfiltered scan runs no step: its consumer reads the base region
	// directly.
	scanStep = step{kind: stepProject, args: unaryArgs}
)

// operators is the operator table. The DP memo stores join candidates
// by their index here.
var operators = [...]operator{
	{alg: MergeJoin, kind: OpJoin, code: "mj", sorted: true,
		steps: []step{{kind: stepMerge, args: joinArgs}}},
	{alg: SortMergeJoin, kind: OpJoin, code: "smj", sorted: true,
		steps: []step{sortLeft, sortRight, {kind: stepMerge, args: joinArgs}}},
	{alg: HashJoin, kind: OpJoin, code: "hj",
		steps: []step{{kind: stepHash, args: [3]slot{slotProbe, slotBuild, slotOut}}}},
	// One step, not a sum of partition and cluster steps: the ⊕ state
	// threading across partition passes and clusters shifts the cost by
	// up to ~10% either way against a per-phase sum, enough to reorder
	// the DP bound's survivors (docs/optimizer.md).
	{alg: PartitionedHashJoin, kind: OpJoin, code: "phj",
		steps: []step{{kind: stepPhj, args: joinArgs}}},
	// The outer relation's order survives a nested-loop join.
	{alg: NestedLoopJoin, kind: OpJoin, code: "nlj", keepsLeft: true,
		steps: []step{{kind: stepNLJ, args: joinArgs}}},
	{alg: HashAggregate, kind: OpAggregate, code: "hashagg", name: "A", aggTable: true,
		steps: []step{{kind: stepHashAgg, args: unaryArgs}}},
	{alg: SortAggregate, kind: OpAggregate, code: "sortagg", name: "G", sorted: true,
		steps: []step{sortLeft, {kind: stepGroup, args: unaryArgs}}},
	{alg: HashDistinct, kind: OpDistinct, code: "hashdistinct", name: "D",
		steps: []step{{kind: stepHashDedup, args: unaryArgs}}},
	{alg: SortDistinct, kind: OpDistinct, code: "sortdistinct", name: "D", sorted: true,
		steps: []step{sortLeft, {kind: stepGroup, args: unaryArgs}}},
	// The order-by sort is added only over unsorted input, and never
	// skipped.
	{alg: QuickSort, kind: OpSort, code: "sort", sorted: true, inPlace: true,
		steps: []step{{kind: stepSort, args: [3]slot{slotLeft}}}},
}

// operatorOf returns the table index of algorithm a as an operator of
// the given kind.
func operatorOf(kind OpKind, a Algorithm) (int8, error) {
	for i := range operators {
		if operators[i].alg == a && operators[i].kind == kind {
			return int8(i), nil
		}
	}
	what := "operator"
	switch kind {
	case OpJoin:
		what = "join"
	case OpAggregate, OpDistinct:
		what = "grouping"
	}
	return 0, fmt.Errorf("queryplan: unknown %s algorithm %q", what, a)
}

// outSorted reports whether the operator's output is key-ordered, given
// whether its left input is.
func (o *operator) outSorted(leftSorted bool) bool {
	if o.keepsLeft {
		return leftSorted
	}
	return o.sorted
}

// unaryOut estimates a unary operator's output over input in: a sort
// reorders in place; a grouping writes `groups` rows of the input's
// width, or fills its aggregation table.
func (o *operator) unaryOut(in Relation, groups int64) Relation {
	switch {
	case o.inPlace:
		in.Sorted = o.sorted
		return in
	case o.aggTable:
		agg := engine.AggRegionFor(o.name, groups)
		return Relation{Name: o.name, Tuples: agg.N, Width: agg.W}
	}
	return Relation{Name: o.name, Tuples: groups, Width: in.Width, Sorted: o.sorted}
}

// mergeAlgorithm is the merge-based join of two inputs: a plain merge
// join when both arrive key-ordered (a sort-merge join would sort
// nothing), a sort-merge join otherwise.
func mergeAlgorithm(leftSorted, rightSorted bool) Algorithm {
	if leftSorted && rightSorted {
		return MergeJoin
	}
	return SortMergeJoin
}

// partitionable reports whether a partitioned hash join with fan-out m
// leaves both inputs at least 8 tuples per cluster.
func partitionable(m, nl, nr int64) bool { return m*8 <= nl && m*8 <= nr }

// joinEstimate estimates the output of joining the relation subsets lm
// and rm of q, whose plans produce ln×lw and rn×rw tuples×bytes:
// cardinalities multiplied and scaled by every edge bridging the two
// subsets, widths concatenated minus the shared key.
func (q Query) joinEstimate(ln, lw, rn, rw int64, lm, rm uint32) (n, w int64) {
	card := float64(ln) * float64(rn)
	for _, e := range q.Joins {
		l, r := uint32(1)<<e.Left, uint32(1)<<e.Right
		if (l&lm != 0 && r&rm != 0) || (l&rm != 0 && r&lm != 0) {
			card *= e.Selectivity
		}
	}
	return clampTuples(card), joinWidth(lw, rw)
}

// joinWidth is the tuple width of a join output over inputs of widths
// lw and rw: both tuples concatenated, the shared key stored once.
func joinWidth(lw, rw int64) int64 {
	return max(lw+rw-engine.KeyWidth, engine.KeyWidth)
}

// subsetName names the output of a join over relation subset mask.
// A subset occurs at most once per plan tree, so the name is
// collision-free within any plan — essential because the IR
// canonicalizer dedups regions by name and geometry, and a bushy plan's
// disjoint subtrees (e.g. two symmetric islands) routinely materialize
// same-sized intermediates that must stay distinct regions.
func subsetName(mask uint32) string {
	return fmt.Sprintf("T%d.%x", bits.OnesCount32(mask)-1, mask)
}
