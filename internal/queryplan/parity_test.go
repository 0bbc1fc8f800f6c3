package queryplan_test

// The exhaustive-oracle parity harness (see docs/optimizer.md): with
// pruning disabled (TopK = ∞) and bushy trees off, the DP search
// explores exactly the exhaustive enumerator's plan space, so after the
// planner's exact phase-2 re-cost the two engines must agree — same
// winner, same top-5 ranking, costs within 1e-9 relative — on every
// small catalog scenario. This bounds what top-k pruning can ever
// break: the engines share phase 2, so any disagreement under pruning
// is a pruning decision, never a costing bug.
//
// Parity runs on one profile: the phase-2 scoring both engines share is
// profile-parameterized but identical code, and cross-profile coverage
// is the golden corpus's job.

import (
	"testing"

	"repro/internal/hardware"
	"repro/internal/queryplan"
)

// parityRelations is the scenario size the exhaustive oracle handles
// comfortably; every catalog scenario at or below it is checked.
const parityRelations = 4

// parityParallelism is checked at every level: the DP side of the
// parity harness must match the exhaustive oracle whether the memo is
// built single-threaded or by a worker pool.
var parityParallelism = []int{1, 2, 8}

// parityCase is one query the oracle checks. With defaultAgrees, the
// default DP search — pruned, bushy, what serving runs — must also pick
// the oracle's winner at the identical cost (not true in general: a
// bushy plan may beat every left-deep one).
type parityCase struct {
	queryplan.Scenario
	defaultAgrees bool
}

// parityCases are every catalog scenario of at most parityRelations
// relations, plus a two-relation join under a group-by.
func parityCases() []parityCase {
	var cases []parityCase
	for _, sc := range queryplan.Catalog() {
		if len(sc.Query.Relations) <= parityRelations {
			cases = append(cases, parityCase{Scenario: sc})
		}
	}
	return append(cases, parityCase{Scenario: queryplan.Scenario{Name: "join2-groupby-small", Query: queryplan.Query{
		Relations: []queryplan.Relation{
			{Name: "U", Tuples: 20_000, Width: 16},
			{Name: "V", Tuples: 5_000, Width: 16},
		},
		Joins:   []queryplan.JoinEdge{{Left: 0, Right: 1, Selectivity: 1.0 / 5_000}},
		GroupBy: 50,
	}}, defaultAgrees: true})
}

func TestDPMatchesExhaustiveOracle(t *testing.T) {
	h := hardware.Origin2000()
	for _, sc := range parityCases() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			ex, err := queryplan.RankExhaustive(h, sc.Query)
			if err != nil {
				t.Fatalf("exhaustive: %v", err)
			}
			if sc.defaultAgrees {
				def, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{})
				if err != nil {
					t.Fatalf("default dp: %v", err)
				}
				if def[0].Plan.Algorithm != ex[0].Plan.Algorithm {
					t.Errorf("default DP winner %s != exhaustive winner %s", def[0].Plan.Algorithm, ex[0].Plan.Algorithm)
				}
				if def[0].Plan.TotalNS() != ex[0].Plan.TotalNS() {
					t.Errorf("winner cost diverged: default DP %g, exhaustive %g", def[0].Plan.TotalNS(), ex[0].Plan.TotalNS())
				}
			}
			for _, par := range parityParallelism {
				dp, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{TopK: -1, LeftDeepOnly: true, Parallelism: par})
				if err != nil {
					t.Fatalf("dp par=%d: %v", par, err)
				}
				if len(ex) == 0 || len(dp) != len(ex) {
					t.Fatalf("par=%d plan count: exhaustive %d, DP k=∞ left-deep %d", par, len(ex), len(dp))
				}
				if ex[0].Plan.Algorithm != dp[0].Plan.Algorithm {
					t.Errorf("par=%d winner diverged:\n  exhaustive: %s\n  dp:         %s", par, ex[0].Plan.Algorithm, dp[0].Plan.Algorithm)
				}
				top := 5
				if top > len(ex) {
					top = len(ex)
				}
				for i := 0; i < top; i++ {
					if ex[i].Plan.Algorithm != dp[i].Plan.Algorithm {
						t.Errorf("par=%d ranking[%d] diverged:\n  exhaustive: %s\n  dp:         %s",
							par, i, ex[i].Plan.Algorithm, dp[i].Plan.Algorithm)
					}
					if d := relDiff(ex[i].Plan.TotalNS(), dp[i].Plan.TotalNS()); d > 1e-9 {
						t.Errorf("par=%d ranking[%d] cost diverged: exhaustive %g, dp %g (rel %g)",
							par, i, ex[i].Plan.TotalNS(), dp[i].Plan.TotalNS(), d)
					}
				}
			}
		})
	}
}

// TestDPBushyNeverWorseThanOracle: bushy trees only widen the plan
// space, so on a query where the space stays small the unrestricted DP
// winner must cost at most the exhaustive left-deep oracle's winner.
// The two-island shape is where bushy plans actually win (see the
// join6-islands catalog scenario for the full-size version).
func TestDPBushyNeverWorseThanOracle(t *testing.T) {
	q := queryplan.Query{
		Relations: []queryplan.Relation{
			{Name: "A1", Tuples: 1_500, Width: 16},
			{Name: "A2", Tuples: 1_800, Width: 16},
			{Name: "B1", Tuples: 1_200, Width: 16},
			{Name: "B2", Tuples: 1_350, Width: 16},
		},
		Joins: []queryplan.JoinEdge{
			{Left: 0, Right: 1, Selectivity: 1.0 / 1_800},
			{Left: 2, Right: 3, Selectivity: 1.0 / 1_350},
			{Left: 1, Right: 2, Selectivity: 1.0 / 1_200},
		},
	}
	h := hardware.Origin2000()
	ex, err := queryplan.RankExhaustive(h, q)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := queryplan.Rank(h, q, queryplan.SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	oracle, bushy := ex[0].Plan, dp[0].Plan
	if bushy.TotalNS() > oracle.TotalNS()*(1+1e-9) {
		t.Errorf("bushy DP winner %s (%g) worse than the left-deep oracle winner %s (%g)",
			bushy.Algorithm, bushy.TotalNS(), oracle.Algorithm, oracle.TotalNS())
	}
}
