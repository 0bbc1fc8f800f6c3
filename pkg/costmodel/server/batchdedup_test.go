package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/pkg/costmodel/server"
)

// TestBatchDedup: requests of one batch sharing a canonical program
// collapse onto one evaluation even with the result cache disabled —
// followers clone the leader's result, re-echo their own spelling, and
// add their own CPU estimate.
func TestBatchDedup(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 2, CacheSize: -1, CompileCacheSize: -1})
	u := []server.RegionDecl{{Name: "U", Items: 1 << 16, Width: 16}}
	reqs := []server.EvalRequest{
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)"},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)", CPUNS: 5e6},
		{Profile: "origin2000", Regions: u, Pattern: "r_trav(U)"},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)", Explain: true},
		{Profile: "origin2000", Regions: u, Pattern: "s_trav(U)", Explain: true},
		{Pattern: "s_trav(U)"}, // missing profile: resolved in the prepass
	}
	results := srv.EvaluateBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results[:5] {
		if res.Error != "" {
			t.Fatalf("request %d: %s", i, res.Error)
		}
	}

	// Request 1 follows request 0: same memory cost, its own CPU
	// estimate on top, marked served-without-evaluation.
	if results[1].MemoryNS != results[0].MemoryNS {
		t.Errorf("follower memory_ns %g != leader %g", results[1].MemoryNS, results[0].MemoryNS)
	}
	if want := results[0].MemoryNS + 5e6; results[1].TotalNS != want {
		t.Errorf("follower total_ns %g, want %g", results[1].TotalNS, want)
	}
	if !results[1].Cached {
		t.Error("follower not marked cached")
	}
	if results[0].Cached {
		t.Error("leader marked cached with the result cache disabled")
	}

	// The explain pair dedups within itself but not against the plain
	// requests (the key carries the explain spelling).
	if len(results[3].Explain) == 0 || len(results[4].Explain) == 0 {
		t.Error("explain output missing")
	}
	if !results[4].Cached || results[3].Cached {
		t.Error("explain pair did not dedup onto its first occurrence")
	}

	if results[5].Error == "" {
		t.Error("malformed request produced no error")
	}

	// 3 leaders evaluated (plain, r_trav, explain), 2 followers served
	// by dedup; the malformed request counts as neither.
	st := srv.BatchDedupStats()
	if st.Hits != 2 || st.Misses != 3 {
		t.Errorf("dedup stats hits=%d misses=%d, want 2/3", st.Hits, st.Misses)
	}

	// Parity: a deduped batch returns what per-request evaluation would.
	for i, req := range reqs[:5] {
		direct := srv.Evaluate(req)
		if direct.Error != "" {
			t.Fatalf("direct %d: %s", i, direct.Error)
		}
		if results[i].MemoryNS != direct.MemoryNS || results[i].TotalNS != direct.TotalNS {
			t.Errorf("request %d: batch (%g, %g) != direct (%g, %g)",
				i, results[i].MemoryNS, results[i].TotalNS, direct.MemoryNS, direct.TotalNS)
		}
		if results[i].Pattern != direct.Pattern {
			t.Errorf("request %d: pattern echo %q != direct %q", i, results[i].Pattern, direct.Pattern)
		}
	}

	// The counters surface on /healthz.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		BatchDedup struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"batch_dedup"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.BatchDedup.Hits != 2 || health.BatchDedup.Misses != 3 {
		t.Errorf("healthz batch_dedup hits=%d misses=%d, want 2/3",
			health.BatchDedup.Hits, health.BatchDedup.Misses)
	}
}

// TestWarmBatchAllocs bounds the allocations of a batch whose leaders
// all hit the result cache. The dedup prepass parses and canonicalizes
// every request once; leaders reuse that work instead of re-parsing and
// re-canonicalizing inside Evaluate. The bound sits above the 540
// allocations this batch makes; evaluating each leader from its raw
// request again made 679.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	srv := server.New(server.Config{Workers: 1})
	regions := []server.RegionDecl{
		{Name: "U", Items: 1 << 16, Width: 16},
		{Name: "V", Items: 1 << 14, Width: 16},
		{Name: "H", Items: 1 << 15, Width: 16},
		{Name: "W", Items: 1 << 16, Width: 16},
	}
	var reqs []server.EvalRequest
	for _, p := range []string{
		"s_trav(U) (.) r_acc(65536, H) (.) s_trav(W)",
		"[s_trav(V) (.) r_trav(H)] (+) [s_trav(U) (.) r_acc(65536, H) (.) s_trav(W)]",
		"nest(U, 64, s_trav(U_j), rnd) (+) rs_trav(4, bi, V)",
		"s_trav(U) (+) [s_trav(U) (.) s_trav(V)]",
	} {
		reqs = append(reqs,
			server.EvalRequest{Profile: "origin2000", Regions: regions, Pattern: p},
			server.EvalRequest{Profile: "origin2000", Regions: regions, Pattern: p, CPUNS: 1e6})
	}
	for _, res := range srv.EvaluateBatch(reqs) { // warm the caches
		if res.Error != "" {
			t.Fatal(res.Error)
		}
	}
	allocs := testing.AllocsPerRun(20, func() { srv.EvaluateBatch(reqs) })
	if allocs > 600 {
		t.Errorf("%.0f allocs per warm batch of %d requests", allocs, len(reqs))
	}
}
