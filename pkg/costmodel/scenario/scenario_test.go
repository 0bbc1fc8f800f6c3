package scenario_test

import (
	"math"
	"testing"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
)

func lightQuery() scenario.Query {
	return scenario.Query{
		Relations: []scenario.Relation{
			{Name: "O", Tuples: 8_000, Width: 16},
			{Name: "C", Tuples: 1_000, Width: 16},
		},
		Joins:  []scenario.JoinEdge{{Left: 0, Right: 1, Selectivity: 1.0 / 1_000}},
		SortBy: true,
	}
}

func TestCatalogSurface(t *testing.T) {
	if len(scenario.Catalog()) < 16 {
		t.Fatalf("catalog has %d scenarios, want ≥ 16", len(scenario.Catalog()))
	}
	names := scenario.Names()
	if len(names) != len(scenario.Catalog()) {
		t.Fatalf("Names length %d != catalog length %d", len(names), len(scenario.Catalog()))
	}
	sc, ok := scenario.ByName(names[0])
	if !ok || sc.Name != names[0] {
		t.Fatalf("ByName(%q) = %v, %t", names[0], sc.Name, ok)
	}
}

func TestBestPlanIsCheapest(t *testing.T) {
	h, err := costmodel.Profile("small-test")
	if err != nil {
		t.Fatal(err)
	}
	plans, err := scenario.PricePlanTreesSearch(h, lightQuery(), scenario.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Plan.TotalNS() < plans[0].Plan.TotalNS() {
			t.Errorf("plan %s cheaper than the reported best", plans[i].Plan.Algorithm)
		}
	}
}

// TestCandidatesRescoreAcrossProfiles: a ranking entry carries its
// compiled program, so it re-scores on any profile through
// costmodel.ScorePlans without re-compiling.
func TestCandidatesRescoreAcrossProfiles(t *testing.T) {
	h, err := costmodel.Profile("small-test")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.PricePlanTreesSearch(h, lightQuery(), scenario.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]costmodel.Candidate, len(direct))
	for i, pp := range direct {
		cands[i] = pp.Plan.Candidate
	}
	ranked := costmodel.ScorePlans(h, cands)
	if len(ranked) != len(cands) {
		t.Fatalf("ScorePlans returned %d plans for %d candidates", len(ranked), len(cands))
	}
	if ranked[0].Algorithm != direct[0].Plan.Algorithm {
		t.Errorf("ScorePlans winner %s != PricePlanTreesSearch winner %s", ranked[0].Algorithm, direct[0].Plan.Algorithm)
	}

	// Re-score the same compiled candidates on a different hierarchy.
	h2, err := costmodel.Profile("origin2000")
	if err != nil {
		t.Fatal(err)
	}
	ranked2 := costmodel.ScorePlans(h2, cands)
	if len(ranked2) != len(cands) {
		t.Fatalf("cross-profile ScorePlans returned %d plans", len(ranked2))
	}
}

// TestPlanTreesExposed: every ranking entry carries the plan tree it
// was lowered from, and the entry's Algorithm is that tree's signature.
func TestPlanTreesExposed(t *testing.T) {
	h, err := costmodel.Profile("small-test")
	if err != nil {
		t.Fatal(err)
	}
	plans, err := scenario.PricePlanTreesSearch(h, lightQuery(), scenario.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for _, pp := range plans {
		if pp.Tree == nil || pp.Tree.Signature() == "" {
			t.Fatalf("%s: entry without a plan tree", pp.Plan.Algorithm)
		}
		if string(pp.Plan.Algorithm) != pp.Tree.Signature() {
			t.Errorf("entry %s carries tree %s", pp.Plan.Algorithm, pp.Tree.Signature())
		}
	}
}

// TestSearchOptionsSurface drives the facade's explicit-search entry
// point: the pruned DP default must be a subset of the unpruned DP
// space, TopK must narrow it further, and any strategy other than DP —
// including the retired exhaustive one — must error.
func TestSearchOptionsSurface(t *testing.T) {
	h, err := costmodel.Profile("small-test")
	if err != nil {
		t.Fatal(err)
	}
	q := lightQuery()
	full, err := scenario.PricePlanTreesSearch(h, q, scenario.SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := scenario.PricePlanTreesSearch(h, q, scenario.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dp) == 0 || len(dp) > len(full) {
		t.Fatalf("DP space %d plans, unpruned %d — pruned search should be a subset", len(dp), len(full))
	}
	top1, err := scenario.PricePlanTreesSearch(h, q, scenario.SearchOptions{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) == 0 || len(top1) > len(dp) {
		t.Errorf("TopK=1 produced %d plans, default DP %d", len(top1), len(dp))
	}
	for _, strategy := range []scenario.SearchStrategy{"bogus", "exhaustive"} {
		if _, err := scenario.PricePlanTreesSearch(h, q, scenario.SearchOptions{Strategy: strategy}); err == nil {
			t.Errorf("strategy %q accepted", strategy)
		}
	}
}

// TestDPReachesLargeScenarios prices the catalog shapes that exist only
// for the DP engine.
func TestDPReachesLargeScenarios(t *testing.T) {
	// modern-x86, not small-test: the large scenarios' sort patterns
	// recurse down to the smallest cache capacity, and small-test's 1 kB
	// L1 would make every lowering needlessly huge.
	h, err := costmodel.Profile("modern-x86")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"join7-star", "join8-chain", "join5-cycle", "join6-islands"} {
		sc, ok := scenario.ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing from the catalog", name)
		}
		plans, err := scenario.PricePlanTreesSearch(h, sc.Query, scenario.SearchOptions{})
		if err != nil {
			t.Fatalf("PricePlanTreesSearch(%s): %v", name, err)
		}
		if best := plans[0].Plan; best.Algorithm == "" || best.TotalNS() <= 0 {
			t.Errorf("best plan of %s = %+v", name, best)
		}
	}
}

func TestPricePlanInvalidQuery(t *testing.T) {
	h, err := costmodel.Profile("small-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.PricePlanTreesSearch(h, scenario.Query{}, scenario.SearchOptions{}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// TestRescorePlansReproducesRanking pins the plan cache's revalidation
// primitive to the search's own pricing: re-scoring the top ranked
// trees of every catalog scenario reproduces each entry's memory and
// CPU time bit for bit.
func TestRescorePlansReproducesRanking(t *testing.T) {
	h, err := costmodel.Profile("origin2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenario.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			priced, err := scenario.PricePlanTreesSearch(h, sc.Query, scenario.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			top := priced[:min(5, len(priced))]
			trees := make([]*scenario.Plan, len(top))
			for i, pp := range top {
				trees[i] = pp.Tree
			}
			rescored, err := scenario.RescorePlans(h, trees)
			if err != nil {
				t.Fatal(err)
			}
			if len(rescored) != len(top) {
				t.Fatalf("%d results for %d trees", len(rescored), len(top))
			}
			for i, p := range rescored {
				want := top[i].Plan
				if p.Algorithm != want.Algorithm ||
					math.Float64bits(p.MemNS) != math.Float64bits(want.MemNS) ||
					math.Float64bits(p.CPUNS) != math.Float64bits(want.CPUNS) {
					t.Errorf("entry %d: rescored %s mem %g cpu %g, ranked %s mem %g cpu %g",
						i, p.Algorithm, p.MemNS, p.CPUNS, want.Algorithm, want.MemNS, want.CPUNS)
				}
			}
		})
	}
}

// TestRescoreInvalidHierarchy: both pricing entry points reject a
// hierarchy that fails validation with an error, never a panic.
func TestRescoreInvalidHierarchy(t *testing.T) {
	good, err := costmodel.Profile("small-test")
	if err != nil {
		t.Fatal(err)
	}
	priced, err := scenario.PricePlanTreesSearch(good, lightQuery(), scenario.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zeroL1 := costmodel.SmallTest()
	zeroL1.Levels[0].Capacity = 0
	for name, h := range map[string]*costmodel.Hierarchy{
		"no levels":   {Name: "empty"},
		"zero L1 cap": zeroL1,
	} {
		if _, err := scenario.PricePlanTreesSearch(h, lightQuery(), scenario.SearchOptions{}); err == nil {
			t.Errorf("%s: PricePlanTreesSearch accepted an invalid hierarchy", name)
		}
		if _, err := scenario.RescorePlans(h, []*scenario.Plan{priced[0].Tree}); err == nil {
			t.Errorf("%s: RescorePlans accepted an invalid hierarchy", name)
		}
	}
}
