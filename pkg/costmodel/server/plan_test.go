package server_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
)

// goldenWinner mirrors the fields plan parity needs from the
// golden-corpus files in internal/queryplan/testdata/golden.
type goldenCorpusFile struct {
	Scenario string `json:"scenario"`
	Profile  string `json:"profile"`
	Plans    int    `json:"plans"`
	Winner   struct {
		Plan    string  `json:"plan"`
		TotalNS float64 `json:"total_ns"`
	} `json:"winner"`
}

// TestPlanMatchesGoldenCorpus prices every catalog scenario through
// Server.Plan and checks the winning plan against the committed golden
// corpus — the same corpus TestGolden locks against queryplan.Rank — so the
// HTTP surface, the public scenario package and the planner agree on
// every catalog entry.
func TestPlanMatchesGoldenCorpus(t *testing.T) {
	const profile = "origin2000"
	// Plan cache off: the catalog contains shape-isomorphic scenario
	// pairs (join2-fk/join2-large, distinct-dense/distinct-sparse), and
	// this test's contract is that every scenario is priced by a real
	// search, not served through another scenario's cached entry.
	s := server.New(server.Config{PlanCacheSize: -1})
	for _, sc := range scenario.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			buf, err := os.ReadFile(filepath.Join("..", "..", "..", "internal", "queryplan",
				"testdata", "golden", sc.Name+"."+profile+".json"))
			if err != nil {
				t.Fatalf("missing golden file for %s (regenerate with go test ./internal/queryplan -run TestGolden -update): %v", sc.Name, err)
			}
			var want goldenCorpusFile
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			res := s.Plan(server.PlanRequest{Profile: profile, Scenario: sc.Name})
			if res.Error != "" {
				t.Fatalf("Plan(%s): %s", sc.Name, res.Error)
			}
			if res.Winner.Plan != want.Winner.Plan {
				t.Errorf("winning plan diverged from the golden corpus:\n  corpus: %s\n  server: %s",
					want.Winner.Plan, res.Winner.Plan)
			}
			if res.Plans != want.Plans {
				t.Errorf("plan count %d != corpus %d", res.Plans, want.Plans)
			}
			rel := res.Winner.TotalNS - want.Winner.TotalNS
			if rel < 0 {
				rel = -rel
			}
			if want.Winner.TotalNS != 0 && rel/want.Winner.TotalNS > 1e-9 {
				t.Errorf("winner total %g != corpus %g", res.Winner.TotalNS, want.Winner.TotalNS)
			}
			if len(res.Ranking) == 0 || res.Ranking[0].Plan != res.Winner.Plan {
				t.Errorf("ranking[0] %v does not echo the winner %s", res.Ranking, res.Winner.Plan)
			}
		})
	}
}

// TestPlanHTTPRoundTrip exercises the full HTTP surface for one
// scenario and one inline query.
func TestPlanHTTPRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	resp, body := postJSON(t, ts.URL+"/v1/plan", server.PlanRequest{
		Profile: "small-test", Scenario: "join2-fk", Top: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario request: status %d: %s", resp.StatusCode, body)
	}
	var pr server.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Winner.Plan == "" || len(pr.Ranking) != 3 || pr.Plans < 3 {
		t.Fatalf("unexpected response: %+v", pr)
	}

	resp, body = postJSON(t, ts.URL+"/v1/plan", server.PlanRequest{
		Profile: "small-test",
		Query: &server.PlanQuery{
			Relations: []server.PlanRelation{
				{Name: "U", Tuples: 8_000, Width: 16},
				{Name: "V", Tuples: 1_000, Width: 16},
			},
			Joins:   []server.PlanJoin{{Left: 0, Right: 1, Selectivity: 0.001}},
			GroupBy: 10,
		},
		Top: -1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline query: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Plans == 0 || len(pr.Ranking) != pr.Plans {
		t.Fatalf("Top=-1 should return every plan: %+v", pr)
	}
	if !strings.Contains(pr.Winner.Plan, "agg(") {
		t.Errorf("group-by query's winner %q has no aggregate", pr.Winner.Plan)
	}
}

// TestPlanScenarioMemoized checks that a repeated (profile, scenario)
// request is served from the plan cache with an identical ranking.
func TestPlanScenarioMemoized(t *testing.T) {
	s := server.New(server.Config{})
	req := server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1}
	first := s.Plan(req)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	if first.Served != server.PlanServedSearch {
		t.Errorf("first request served %q, want %q", first.Served, server.PlanServedSearch)
	}
	if first.Shape == "" {
		t.Error("response carries no shape fingerprint")
	}
	misses := s.PlanCacheStats().Misses
	second := s.Plan(req)
	if second.Error != "" {
		t.Fatal(second.Error)
	}
	if second.Served != server.PlanServedCache {
		t.Errorf("repeat served %q, want %q", second.Served, server.PlanServedCache)
	}
	st := s.PlanCacheStats()
	if st.Hits == 0 {
		t.Error("repeated scenario request did not hit the plan cache")
	}
	if st.Misses != misses {
		t.Errorf("repeated scenario request recounted a miss (%d -> %d)", misses, st.Misses)
	}
	if len(first.Ranking) != len(second.Ranking) || first.Winner != second.Winner {
		t.Errorf("cached response diverged: %+v vs %+v", first.Winner, second.Winner)
	}
	// A different top on the cached entry slices without recomputing.
	third := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: 1})
	if len(third.Ranking) != 1 || third.Winner != first.Winner || third.Plans != first.Plans {
		t.Errorf("sliced cached response wrong: %+v", third)
	}
}

// TestPlanCacheKeyedOnSearchOptions locks the plan-cache key's search
// dimensions: the same (profile, scenario) under different search
// options must be computed separately — a ranking leaking across top-k
// settings would silently serve the wrong plan space.
func TestPlanCacheKeyedOnSearchOptions(t *testing.T) {
	s := server.New(server.Config{})
	dp := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1})
	if dp.Error != "" {
		t.Fatal(dp.Error)
	}
	st := s.PlanCacheStats()

	// Different top-k: separate entry.
	wide := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1, TopK: server.MaxPlanTopK})
	if wide.Error != "" {
		t.Fatal(wide.Error)
	}
	if got := s.PlanCacheStats().Misses; got != st.Misses+1 {
		t.Errorf("wide-topk request did not miss the cache (misses %d -> %d)", st.Misses, got)
	}
	if wide.Plans < dp.Plans {
		t.Errorf("wide DP space (%d plans) smaller than the pruned one (%d)", wide.Plans, dp.Plans)
	}
	// topk spelled as the engine default normalizes onto the default's
	// cache entry — semantically identical requests share one entry.
	missesNow := s.PlanCacheStats().Misses
	norm := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1, TopK: 3})
	if norm.Error != "" || norm.Plans != dp.Plans {
		t.Errorf("explicit default topk diverged: %+v", norm)
	}
	if got := s.PlanCacheStats().Misses; got != missesNow {
		t.Errorf("topk=3 (the default) recounted a miss (%d -> %d)", missesNow, got)
	}

	// Repeats of each variant hit their own entries.
	hitsBefore := s.PlanCacheStats().Hits
	again := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1, TopK: server.MaxPlanTopK})
	if again.Error != "" || again.Plans != wide.Plans || again.Winner != wide.Winner {
		t.Errorf("cached wide-topk response diverged: %+v vs %+v", again.Winner, wide.Winner)
	}
	if got := s.PlanCacheStats().Hits; got != hitsBefore+1 {
		t.Errorf("repeated wide-topk request did not hit the cache (hits %d -> %d)", hitsBefore, got)
	}
	// "dp" spelled explicitly shares the default's entry (same
	// normalized options).
	explicit := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1, Search: "dp"})
	if explicit.Error != "" || explicit.Plans != dp.Plans || explicit.Winner != dp.Winner {
		t.Errorf("explicit dp response diverged from the default: %+v vs %+v", explicit.Winner, dp.Winner)
	}
}

// TestPlanDPOnlyScenario prices a scenario only the DP engine can
// handle end to end over HTTP, and checks that a request for the
// retired exhaustive search is a 400 naming the one strategy there is.
func TestPlanDPOnlyScenario(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	// modern-x86: small-test's 1 kB caches would blow up the big
	// scenario's sort-pattern lowerings for no extra coverage.
	resp, body := postJSON(t, ts.URL+"/v1/plan", server.PlanRequest{
		Profile: "modern-x86", Scenario: "join8-chain",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DP on join8-chain: status %d: %s", resp.StatusCode, body)
	}
	var pr server.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Winner.Plan == "" || pr.Plans == 0 {
		t.Fatalf("no DP winner for join8-chain: %+v", pr)
	}

	resp, body = postJSON(t, ts.URL+"/v1/plan", server.PlanRequest{
		Profile: "modern-x86", Scenario: "join8-chain", Search: "exhaustive",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("exhaustive on join8-chain: status %d, want 400: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pr.Error, `"exhaustive"`) || !strings.Contains(pr.Error, `"dp"`) {
		t.Errorf("exhaustive error %q does not name the rejected and the accepted strategy", pr.Error)
	}
}

func TestPlanErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name string
		req  server.PlanRequest
		want string
	}{
		{"missing profile", server.PlanRequest{Scenario: "join2-fk"}, "missing profile"},
		{"unknown profile", server.PlanRequest{Profile: "vax-11", Scenario: "join2-fk"}, "unknown profile"},
		{"unknown scenario", server.PlanRequest{Profile: "small-test", Scenario: "nope"}, "unknown scenario"},
		{"neither", server.PlanRequest{Profile: "small-test"}, "missing scenario or query"},
		{"both", server.PlanRequest{Profile: "small-test", Scenario: "join2-fk",
			Query: &server.PlanQuery{}}, "not both"},
		{"invalid query", server.PlanRequest{Profile: "small-test",
			Query: &server.PlanQuery{Relations: []server.PlanRelation{{Name: "U", Tuples: 10, Width: 16},
				{Name: "V", Tuples: 10, Width: 16}}}}, "does not connect"},
		{"invalid search strategy", server.PlanRequest{Profile: "small-test", Scenario: "join2-fk",
			Search: "genetic"}, `unknown search strategy "genetic"`},
		{"negative topk", server.PlanRequest{Profile: "small-test", Scenario: "join2-fk",
			TopK: -1}, "pruning cannot be disabled over HTTP"},
		{"huge topk", server.PlanRequest{Profile: "small-test", Scenario: "join2-fk",
			TopK: server.MaxPlanTopK + 1}, "outside [0, 64]"},
		{"negative parallelism", server.PlanRequest{Profile: "small-test", Scenario: "join2-fk",
			Parallelism: -1}, "parallelism -1 outside [0, 16]"},
		{"huge parallelism", server.PlanRequest{Profile: "small-test", Scenario: "join2-fk",
			Parallelism: server.MaxPlanParallelism + 1}, "parallelism 17 outside [0, 16]"},
		{"duplicate edge", server.PlanRequest{Profile: "small-test",
			Query: &server.PlanQuery{Relations: []server.PlanRelation{{Name: "U", Tuples: 10, Width: 16},
				{Name: "V", Tuples: 10, Width: 16}},
				Joins: []server.PlanJoin{{Left: 0, Right: 1, Selectivity: 0.1},
					{Left: 1, Right: 0, Selectivity: 0.2}}}}, "duplicate join edge 0–1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/plan", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var pr server.PlanResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(pr.Error, tc.want) {
				t.Errorf("error %q does not mention %q", pr.Error, tc.want)
			}
		})
	}

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

// TestPlanParallelismKnob locks the Parallelism knob's wire contract:
// every accepted setting returns the identical ranking (the DP search
// is deterministic across parallelism — see the determinism suite),
// and each setting occupies its own plan-cache entry.
func TestPlanParallelismKnob(t *testing.T) {
	s := server.New(server.Config{})
	base := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1})
	if base.Error != "" {
		t.Fatal(base.Error)
	}
	for _, par := range []int{1, 2, server.MaxPlanParallelism} {
		missesBefore := s.PlanCacheStats().Misses
		got := s.Plan(server.PlanRequest{Profile: "small-test", Scenario: "join2-fk", Top: -1, Parallelism: par})
		if got.Error != "" {
			t.Fatalf("parallelism %d: %v", par, got.Error)
		}
		if got.Plans != base.Plans || len(got.Ranking) != len(base.Ranking) {
			t.Fatalf("parallelism %d: %d plans (%d ranked), default %d (%d)",
				par, got.Plans, len(got.Ranking), base.Plans, len(base.Ranking))
		}
		for i := range got.Ranking {
			if got.Ranking[i] != base.Ranking[i] {
				t.Errorf("parallelism %d: ranking[%d] diverged: %+v vs %+v",
					par, i, got.Ranking[i], base.Ranking[i])
			}
		}
		if got := s.PlanCacheStats().Misses; got != missesBefore+1 {
			t.Errorf("parallelism %d did not get its own cache entry (misses %d -> %d)",
				par, missesBefore, got)
		}
	}
}
