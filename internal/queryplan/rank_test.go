package queryplan

import (
	"strings"
	"testing"

	"repro/internal/hardware"
)

func testQuery() Query {
	return Query{
		Relations: []Relation{
			{Name: "U", Tuples: 20_000, Width: 16},
			{Name: "V", Tuples: 5_000, Width: 16},
		},
		Joins:   []JoinEdge{{Left: 0, Right: 1, Selectivity: 1.0 / 5_000}},
		GroupBy: 50,
	}
}

func TestQueryCandidatesDedupe(t *testing.T) {
	// The exhaustive oracle enumerates the complete plan space, so the
	// expected duplicate pairs are guaranteed to be present.
	ranked, err := Rank(hardware.SmallTest(), testQuery(), SearchOptions{Strategy: SearchExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no candidates")
	}
	// (U hj V) and (V hj U) compile to the same canonical program (the
	// build side is picked by size either way); only one survives.
	var hj int
	seen := map[string]bool{}
	for _, pp := range ranked {
		sig := string(pp.Plan.Algorithm)
		if seen[sig] {
			t.Errorf("duplicate signature %s", sig)
		}
		seen[sig] = true
		if strings.Contains(sig, " hj ") && !strings.Contains(sig, "phj") {
			hj++
		}
	}
	if hj != 2 { // one per grouping variant
		t.Errorf("got %d plain hash-join plans, want 2 (build-side duplicates collapsed)", hj)
	}
	canon := map[string]bool{}
	for _, pp := range ranked {
		key := pp.Plan.Compiled.Canonical()
		if canon[key] {
			t.Errorf("cost-equivalent duplicate survived: %s", pp.Plan.Algorithm)
		}
		canon[key] = true
	}
}

func TestQueryPlansSortedAndRescorable(t *testing.T) {
	h := hardware.SmallTest()
	ranked, err := Rank(h, testQuery(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Plan.TotalNS() < ranked[i-1].Plan.TotalNS() {
			t.Fatalf("plans not sorted at %d: %g < %g", i, ranked[i].Plan.TotalNS(), ranked[i-1].Plan.TotalNS())
		}
	}
	rescored, err := Rescore(h, []*Plan{ranked[0].Tree})
	if err != nil {
		t.Fatal(err)
	}
	if rescored[0].Algorithm != ranked[0].Plan.Algorithm {
		t.Errorf("Rescore of the winner's tree %s != Rank[0] %s", rescored[0].Algorithm, ranked[0].Plan.Algorithm)
	}

	// The same compiled programs re-score on another profile without
	// recompiling (the cross-profile what-if loop).
	cands := make([]Candidate, len(ranked))
	for i, pp := range ranked {
		cands[i] = pp.Plan.Candidate
	}
	other := ScoreOn(hardware.Origin2000(), cands)
	if len(other) != len(cands) {
		t.Fatalf("ScoreOn dropped candidates: %d != %d", len(other), len(cands))
	}
	for _, p := range other {
		if p.MemNS <= 0 {
			t.Errorf("plan %s scored non-positive memory time %g", p.Algorithm, p.MemNS)
		}
	}
}

func TestQueryCandidatesInvalidQuery(t *testing.T) {
	h := hardware.SmallTest()
	if _, err := Rank(h, Query{}, SearchOptions{}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := Rank(h, testQuery(), SearchOptions{Strategy: "anneal"}); err == nil {
		t.Fatal("invalid search strategy accepted")
	}
}
