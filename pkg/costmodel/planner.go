package costmodel

import "repro/internal/queryplan"

// Planner surface: a miniature cost-based physical optimizer built on
// the model — the consumer the paper designed the model for. Given
// logical data volumes it enumerates candidate physical plans of a
// join, grouping or duplicate elimination, costs each one's access
// pattern, and ranks them cheapest first. Whole query plans (join tree
// plus an algorithm choice per operator) are ranked by package
// repro/pkg/costmodel/scenario, which returns the same Plan type.
type (
	// Planner costs candidate plans on one hardware profile.
	Planner = queryplan.Planner
	// Relation describes an input's logical properties (cardinality,
	// tuple width, sortedness).
	Relation = queryplan.Relation
	// Plan is one costed physical alternative.
	Plan = queryplan.CostedPlan
	// Candidate is one enumerated physical alternative with its access
	// pattern compiled once into the cost IR; re-score it on any
	// profile with ScorePlans without re-compiling.
	Candidate = queryplan.Candidate
	// Algorithm identifies a physical operator implementation.
	Algorithm = queryplan.Algorithm
)

// ScorePlans costs every candidate on the hierarchy from its compiled
// program (no re-compilation) and returns the plans sorted cheapest
// first. Use Planner.JoinCandidates / AggregateCandidates /
// DistinctCandidates to enumerate, then score the same candidates
// across as many profiles as needed.
func ScorePlans(h *Hierarchy, cands []Candidate) []Plan { return queryplan.ScoreOn(h, cands) }

// The planner's physical algorithm inventory, re-exported.
const (
	NestedLoopJoin      = queryplan.NestedLoopJoin
	MergeJoin           = queryplan.MergeJoin
	SortMergeJoin       = queryplan.SortMergeJoin
	HashJoin            = queryplan.HashJoin
	PartitionedHashJoin = queryplan.PartitionedHashJoin
	QuickSort           = queryplan.QuickSort
	HashAggregate       = queryplan.HashAggregate
	SortAggregate       = queryplan.SortAggregate
	HashDistinct        = queryplan.HashDistinct
	SortDistinct        = queryplan.SortDistinct
)

// NewPlanner creates a planner for the hierarchy, which must validate.
func NewPlanner(h *Hierarchy) (*Planner, error) { return queryplan.NewPlanner(h) }
