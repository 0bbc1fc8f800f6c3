// Package scenario prices whole query plans on the cost model: the
// paper's compound-pattern algebra (Section 5) applied at plan
// granularity rather than per operator.
//
// A Query describes the logical shape — relations, a join graph with
// selectivities, optional filters/projections and an aggregate,
// distinct or order-by on top. PricePlanTreesSearch searches its
// physical alternatives — by default a dynamic program over the
// connected subgraphs of the join graph (memoized subplans, bushy
// trees, top-k pruning by a context-free cost bound; see
// docs/optimizer.md), with the exhaustive left-deep enumerator
// available via SearchOptions as a small-query oracle — lowers each
// surviving plan to one compound access pattern (operators sequenced
// with ⊕ so cache state threads between them, MonetDB-style full
// materialization), compiles it once into the cost IR, and ranks the
// plans by predicted total time on a hardware profile, cheapest first.
// RescorePlans re-prices given plan trees without searching.
//
// Catalog ships ready-made scenarios — single-operator baselines,
// hash-vs-sort decisions, 2–4 relation join-order problems, TPC-H
// Q1/Q3-shaped pipelines, and DP-only shapes (a 7-relation snowflake,
// an 8-relation chain, a cyclic graph, a bushy-favouring two-island
// query) — whose expected plan choices and costs are locked by the
// repository's golden-corpus regression harness (see
// docs/scenarios.md). The same scenarios are served by `costmodel
// scenarios` and by the HTTP endpoint POST /v1/plan.
package scenario

import (
	"repro/internal/queryplan"
	"repro/pkg/costmodel"
)

// Re-exported queryplan types: the logical query description.
type (
	// Query is a logical query: relations, join graph, filters, and an
	// optional aggregate / distinct / order-by.
	Query = queryplan.Query
	// JoinEdge is one equi-join predicate with its selectivity.
	JoinEdge = queryplan.JoinEdge
	// Relation describes an input's logical properties (an alias of
	// costmodel.Relation).
	Relation = queryplan.Relation
	// Scenario is one named catalog entry.
	Scenario = queryplan.Scenario
	// Plan is one physical plan tree (algorithm choices made).
	Plan = queryplan.Plan
	// SearchOptions tune the plan-space search: strategy (DP or
	// exhaustive), memo top-k, bushy on/off. The zero value is the DP
	// search with defaults.
	SearchOptions = queryplan.SearchOptions
	// SearchStrategy selects the plan-space search engine.
	SearchStrategy = queryplan.SearchStrategy
	// Fingerprint is a query's canonical identity: an
	// isomorphism-safe shape key plus the parameter vector in
	// canonical order (see FingerprintQuery).
	Fingerprint = queryplan.Fingerprint
	// Recipe is the relabelable skeleton of one physical plan — scan
	// leaves hold canonical relation positions, output estimates are
	// recomputed at Bind time (see NewRecipe / BindRecipe).
	Recipe = queryplan.Recipe
)

// The search strategies.
const (
	// SearchDP is the memoized DP search over connected subgraphs
	// (bushy trees, top-k pruning) — the default.
	SearchDP = queryplan.SearchDP
	// SearchExhaustive is the exhaustive left-deep enumerator, the
	// complete-but-factorial oracle for small queries.
	SearchExhaustive = queryplan.SearchExhaustive
	// DefaultTopK is the DP memo width used when SearchOptions.TopK is
	// zero.
	DefaultTopK = queryplan.DefaultTopK
)

// Catalog returns the built-in scenarios.
func Catalog() []Scenario { return queryplan.Catalog() }

// Names returns the catalog's scenario names in catalog order.
func Names() []string { return queryplan.ScenarioNames() }

// ByName looks a scenario up in the catalog.
func ByName(name string) (Scenario, bool) { return queryplan.ScenarioByName(name) }

// FingerprintQuery computes q's canonical fingerprint: a shape key
// that is stable under relation renaming, relation reordering and edge
// reordering (isomorphic join graphs collide), with the numeric
// parameters — cardinalities, widths, selectivities, group counts —
// split into a separate vector in canonical order. The serving plan
// cache keys on the shape and compares the parameters to decide
// between a pure hit, a cheap re-validation, and a full re-search
// (docs/serving.md). Validation errors are returned unchanged.
func FingerprintQuery(q Query) (Fingerprint, error) { return q.Fingerprint() }

// NewRecipe extracts the relabelable skeleton of a plan searched for
// (q, fp): algorithm choices kept, names and estimates dropped.
func NewRecipe(p *Plan, q Query, fp Fingerprint) (*Recipe, error) {
	return queryplan.NewRecipe(p, q, fp)
}

// BindRecipe re-attaches a recipe to a query of the same shape,
// recomputing every output estimate under that query's parameters.
// Binding a recipe back to its own query reproduces the searched plan
// exactly (bit-identical lowered cost).
func BindRecipe(r *Recipe, q Query, fp Fingerprint) (*Plan, error) {
	return r.Bind(q, fp)
}

// PricedPlan pairs one costed ranking entry with the physical plan
// tree it was lowered from.
type PricedPlan = queryplan.PricedPlan

// PricePlanTreesSearch searches and prices the physical plans of q on
// the hierarchy, sorted cheapest first, keeping each ranking entry's
// plan tree — the raw material for recipes: search once, extract
// recipes from the trees, and serve future same-shape queries without
// re-searching. Each entry's Plan.Algorithm carries the plan
// signature, e.g.
//
//	sort(hashagg((σ(C) hj σ(O)) hj L))
//
// Cost-equivalent plans (same canonical pattern and CPU estimate)
// collapse to the first one searched.
func PricePlanTreesSearch(h *costmodel.Hierarchy, q Query, so SearchOptions) ([]PricedPlan, error) {
	return queryplan.Rank(h, q, so)
}

// RescorePlans lowers, compiles and costs the given plan trees on the
// hierarchy, one result per tree in input order — no search, no dedup,
// no sorting. Each result is bit-identical to the PricePlanTreesSearch
// entry for the same tree. Each call prices at IR-evaluator speed
// (microseconds per plan), which is what makes parameter-drift
// re-validation of cached recipes ~1000x cheaper than a DP re-search.
func RescorePlans(h *costmodel.Hierarchy, trees []*Plan) ([]costmodel.Plan, error) {
	return queryplan.Rescore(h, trees)
}
