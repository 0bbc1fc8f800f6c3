// Package queryplan composes the paper's operator access patterns
// (Table 2, built by internal/engine) into whole query plans — the
// compound-pattern algebra of Section 5 applied at plan granularity.
//
// A Query describes the logical shape the paper assumes an oracle
// provides: base relations with cardinalities and widths, a join graph
// with per-edge selectivities, optional per-relation filters and
// projections, and an optional aggregate / distinct / order-by on top.
// Search expands a Query into physical alternatives with a dynamic
// program over the connected subgraphs of the join graph (dp.go:
// memoized subplans, bushy trees, top-k pruning per subset by a
// context-free cost bound), choosing an algorithm per join and hash-
// vs sort-based grouping and duplicate elimination; the exhaustive
// left-deep enumerator it is checked against lives in
// exhaustive_test.go. Each physical Plan lowers to a single compound pattern:
// operators execute one after another (⊕, MonetDB-style full
// materialization, which is exactly the execution model the paper's
// system uses), each operator's own concurrent region traversals
// combined with ⊙. Eq. 5.2's state threading then prices cross-operator
// cache reuse — the intermediate a join leaves in the cache discounts
// the aggregate that consumes it.
//
// Rank (rank.go) runs the whole optimizer: search, lower, compile once
// into the cost IR, and price every surviving plan on a hardware
// profile, cheapest first; a Planner ranks the alternatives of a single
// operator. The package is exposed publicly as repro/pkg/costmodel
// (the single-operator planner) and repro/pkg/costmodel/scenario
// (query ranking plus a catalog of ready-made scenarios, catalog.go).
package queryplan

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/region"
)

// Relation describes an input's logical properties.
type Relation struct {
	Name   string
	Tuples int64
	Width  int64 // bytes per tuple, ≥ engine.KeyWidth
	Sorted bool  // key-sorted, enabling merge algorithms without a sort
}

// Region returns the relation's data-region descriptor.
func (r Relation) Region() *region.Region {
	return region.New(r.Name, r.Tuples, r.Width)
}

// Algorithm identifies a physical operator implementation.
type Algorithm string

// The physical algorithm inventory.
const (
	NestedLoopJoin      Algorithm = "nested-loop-join"
	MergeJoin           Algorithm = "merge-join"
	SortMergeJoin       Algorithm = "sort-merge-join"
	HashJoin            Algorithm = "hash-join"
	PartitionedHashJoin Algorithm = "partitioned-hash-join"
	QuickSort           Algorithm = "quick-sort"
	HashAggregate       Algorithm = "hash-aggregate"
	SortAggregate       Algorithm = "sort-aggregate"
	HashDistinct        Algorithm = "hash-distinct"
	SortDistinct        Algorithm = "sort-distinct"
)

// CPUCosts are the per-tuple T_cpu constants per algorithm step
// (Eq. 6.1's hardware-independent component).
type CPUCosts struct {
	Compare   float64 // one key comparison + cursor advance
	Hash      float64 // hash + bucket access
	Move      float64 // copy one tuple
	Partition float64 // hash + cluster append
}

// DefaultCPU returns constants in line with the experiments package.
func DefaultCPU() CPUCosts {
	return CPUCosts{Compare: 20, Hash: 100, Move: 20, Partition: 50}
}

// sortNS estimates the CPU time of quick-sorting n tuples.
func (c CPUCosts) sortNS(n float64) float64 {
	if n < 2 {
		return 0
	}
	return c.Compare * 2 * n * math.Ceil(math.Log2(n))
}

// JoinEdge is one equi-join predicate of the join graph, connecting two
// relations (by index into Query.Relations) with a selectivity: the
// join produces |L|·|R|·Selectivity tuples.
type JoinEdge struct {
	Left, Right int
	Selectivity float64
}

// Query is a logical query over one to MaxRelations base relations: a
// join graph plus optional per-relation filters/projections and an
// optional aggregate, distinct or order-by on top. It carries no
// physical choices — Search makes those.
type Query struct {
	Relations []Relation
	// Joins is the join graph; it must connect all relations (no cross
	// products). Empty for single-relation queries.
	Joins []JoinEdge
	// Filters holds one scan selectivity per relation in (0, 1]; nil or
	// 0 entries mean "no filter". A filtered scan materializes its
	// qualifying tuples before the consumer runs.
	Filters []float64
	// Projections holds one bytes-used value per relation; 0 means the
	// full width. A narrowing projection materializes the narrowed
	// column slice.
	Projections []int64
	// GroupBy > 0 aggregates the join result into that many groups.
	GroupBy int64
	// Distinct > 0 eliminates duplicates down to that many rows.
	// Mutually exclusive with GroupBy.
	Distinct int64
	// SortBy asks for a sorted result (order-by on the key).
	SortBy bool
}

// MaxRelations bounds the plan-space search. The DP search (dp.go)
// memoizes connected subgraphs over dense bitset-indexed strata, so it
// handles this many relations comfortably (the memo is 2^n entries; at
// 14 relations that is 16384 slots, and only connected subsets are ever
// populated); the test-only exhaustive left-deep enumerator grows
// factorially and hits Options.MaxPlans well before the cap.
const MaxRelations = 14

// Validate checks the query's structural invariants.
func (q Query) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("queryplan: query with no relations")
	}
	if len(q.Relations) > MaxRelations {
		return fmt.Errorf("queryplan: %d relations exceeds the maximum of %d", len(q.Relations), MaxRelations)
	}
	names := make(map[string]bool, len(q.Relations))
	for i, r := range q.Relations {
		if r.Name == "" {
			return fmt.Errorf("queryplan: relation %d has no name", i)
		}
		if names[r.Name] {
			// Regions are deduplicated by name during canonicalization, so
			// two same-named relations would silently alias one region —
			// and name-keyed plan recipes could not tell them apart.
			return fmt.Errorf("queryplan: duplicate relation name %q", r.Name)
		}
		names[r.Name] = true
		if r.Tuples <= 0 || r.Width < engine.KeyWidth {
			return fmt.Errorf("queryplan: relation %s: want tuples > 0 and width ≥ %d, got %d×%d",
				r.Name, engine.KeyWidth, r.Tuples, r.Width)
		}
	}
	if q.Filters != nil && len(q.Filters) != len(q.Relations) {
		return fmt.Errorf("queryplan: %d filters for %d relations", len(q.Filters), len(q.Relations))
	}
	for i, f := range q.Filters {
		if f < 0 || f > 1 {
			return fmt.Errorf("queryplan: filter %d selectivity %g outside [0, 1]", i, f)
		}
	}
	if q.Projections != nil && len(q.Projections) != len(q.Relations) {
		return fmt.Errorf("queryplan: %d projections for %d relations", len(q.Projections), len(q.Relations))
	}
	for i, u := range q.Projections {
		if u < 0 || u > q.Relations[i].Width {
			return fmt.Errorf("queryplan: projection %d bytes-used %d outside [0, %d]",
				i, u, q.Relations[i].Width)
		}
	}
	edges := make(map[[2]int]bool, len(q.Joins))
	for _, e := range q.Joins {
		if e.Left < 0 || e.Left >= len(q.Relations) || e.Right < 0 || e.Right >= len(q.Relations) || e.Left == e.Right {
			return fmt.Errorf("queryplan: join edge %d–%d outside the relation list", e.Left, e.Right)
		}
		if e.Selectivity <= 0 || e.Selectivity > 1 {
			return fmt.Errorf("queryplan: join edge %d–%d selectivity %g outside (0, 1]", e.Left, e.Right, e.Selectivity)
		}
		lo, hi := e.Left, e.Right
		if lo > hi {
			lo, hi = hi, lo
		}
		if edges[[2]int{lo, hi}] {
			return fmt.Errorf("queryplan: duplicate join edge %d–%d", lo, hi)
		}
		edges[[2]int{lo, hi}] = true
	}
	if len(q.Relations) > 1 && !q.connected() {
		return fmt.Errorf("queryplan: join graph does not connect all %d relations (cross products are not enumerated)", len(q.Relations))
	}
	if q.GroupBy < 0 || q.Distinct < 0 {
		return fmt.Errorf("queryplan: negative group/distinct count")
	}
	if q.GroupBy > 0 && q.Distinct > 0 {
		return fmt.Errorf("queryplan: GroupBy and Distinct are mutually exclusive")
	}
	return nil
}

// connected reports whether the join graph spans every relation.
func (q Query) connected() bool {
	n := len(q.Relations)
	seen := make([]bool, n)
	seen[0] = true
	frontier := []int{0}
	for len(frontier) > 0 {
		i := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, e := range q.Joins {
			j := -1
			if e.Left == i && !seen[e.Right] {
				j = e.Right
			} else if e.Right == i && !seen[e.Left] {
				j = e.Left
			}
			if j >= 0 {
				seen[j] = true
				frontier = append(frontier, j)
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// filter returns relation i's scan selectivity (1 = none).
func (q Query) filter(i int) float64 {
	if q.Filters == nil || q.Filters[i] == 0 {
		return 1
	}
	return q.Filters[i]
}

// projection returns relation i's bytes-used (0 = full width).
func (q Query) projection(i int) int64 {
	if q.Projections == nil {
		return 0
	}
	u := q.Projections[i]
	if u >= q.Relations[i].Width {
		return 0
	}
	return u
}

// clampTuples rounds a cardinality estimate to at least one tuple.
func clampTuples(card float64) int64 {
	if card < 1 {
		return 1
	}
	if card > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(math.Round(card))
}
