package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/server"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// testBatch builds a batch of 10 distinct requests across profiles and
// pattern shapes (with one intentional duplicate of request 0, so a
// single batch already exercises the memoization path).
func testBatch() []server.EvalRequest {
	regions := func(names ...string) []server.RegionDecl {
		var out []server.RegionDecl
		for i, n := range names {
			out = append(out, server.RegionDecl{Name: n, Items: int64(1<<16) << i, Width: 16})
		}
		return out
	}
	reqs := []server.EvalRequest{
		{Profile: "origin2000", Regions: regions("U"), Pattern: "s_trav(U)"},
		{Profile: "origin2000", Regions: regions("U"), Pattern: "r_trav(U)"},
		{Profile: "origin2000", Regions: regions("U"), Pattern: "rr_trav(4, U)"},
		{Profile: "origin2000", Regions: regions("U"), Pattern: "rs_trav(4, bi, U)"},
		{Profile: "origin2000", Regions: regions("U", "H", "W"),
			Pattern: "s_trav(U) (.) r_acc(65536, H) (.) s_trav(W)", CPUNS: 1e6},
		{Profile: "modern-x86", Regions: regions("U"), Pattern: "nest(U, 64, s_trav(U_j), rnd)"},
		{Profile: "modern-x86", Regions: regions("U", "V"),
			Pattern: "s_trav(U) (+) [s_trav(U) (.) s_trav(V)]", Explain: true},
		{Profile: "small-test", Regions: regions("U"), Pattern: "r_acc(10000, U)"},
		{Profile: "small-test", Regions: regions("U"), Pattern: "s_trav~(U, u=8)"},
	}
	reqs = append(reqs, reqs[0]) // duplicate: must be served from cache
	return reqs
}

// directResult evaluates one request straight through pkg/costmodel,
// bypassing the server, for parity checks.
func directResult(t *testing.T, req server.EvalRequest) (memNS float64, perLevel []costmodel.Misses) {
	t.Helper()
	regions := map[string]*costmodel.Region{}
	for _, d := range req.Regions {
		regions[d.Name] = costmodel.NewRegion(d.Name, d.Items, d.Width)
	}
	p, err := costmodel.ParsePattern(req.Pattern, regions)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.DefaultRegistry().Model(req.Profile)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range res.PerLevel {
		perLevel = append(perLevel, lr.Misses)
	}
	return res.MemoryTimeNS(), perLevel
}

// TestBatchEvaluateMatchesDirect is the acceptance test: start the
// serve handler, post a batch of ≥8 evaluation requests, and assert
// every result matches direct pkg/costmodel evaluation; then post the
// batch again and assert the cache served it.
func TestBatchEvaluateMatchesDirect(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 4})
	reqs := testBatch()
	if len(reqs) < 8 {
		t.Fatalf("acceptance requires ≥8 requests, have %d", len(reqs))
	}

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", server.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var batch server.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if len(batch.Results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(batch.Results), len(reqs))
	}

	for i, res := range batch.Results {
		req := reqs[i]
		if res.Error != "" {
			t.Fatalf("request %d (%s on %s): %s", i, req.Pattern, req.Profile, res.Error)
		}
		wantMem, wantLevels := directResult(t, req)
		if res.MemoryNS != wantMem {
			t.Errorf("request %d: memory_ns = %g, direct evaluation = %g", i, res.MemoryNS, wantMem)
		}
		if want := wantMem + req.CPUNS; res.TotalNS != want {
			t.Errorf("request %d: total_ns = %g, want %g", i, res.TotalNS, want)
		}
		if len(res.Levels) != len(wantLevels) {
			t.Fatalf("request %d: %d levels, want %d", i, len(res.Levels), len(wantLevels))
		}
		for j, lc := range res.Levels {
			if lc.SeqMisses != wantLevels[j].Seq || lc.RndMisses != wantLevels[j].Rnd {
				t.Errorf("request %d level %s: (%g, %g) misses, direct (%g, %g)",
					i, lc.Level, lc.SeqMisses, lc.RndMisses, wantLevels[j].Seq, wantLevels[j].Rnd)
			}
		}
		if req.Explain && len(res.Explain) == 0 {
			t.Errorf("request %d: explain requested but missing", i)
		}
	}

	// The batch's last request duplicates its first: the duplicate must
	// have been memoized (whichever of the two ran first populated the
	// cache unless they raced; re-posting below pins it down regardless).
	if srv.CacheLen() == 0 {
		t.Error("cache empty after a batch")
	}

	// Cache-hit path: the identical batch again — every result must now
	// be served from the LRU cache and still match.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", server.BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second batch: status %d", resp.StatusCode)
	}
	var second server.BatchResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	for i, res := range second.Results {
		if !res.Cached {
			t.Errorf("request %d not served from cache on repeat", i)
		}
		if res.MemoryNS != batch.Results[i].MemoryNS {
			t.Errorf("request %d: cached memory_ns %g != first pass %g",
				i, res.MemoryNS, batch.Results[i].MemoryNS)
		}
	}
}

func TestSingleRequestShape(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := server.EvalRequest{
		Profile: "origin2000",
		Regions: []server.RegionDecl{{Name: "U", Items: 1 << 20, Width: 8}},
		Pattern: "s_trav(U)",
	}
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res server.EvalResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	wantMem, _ := directResult(t, req)
	if res.MemoryNS != wantMem {
		t.Errorf("memory_ns = %g, want %g", res.MemoryNS, wantMem)
	}
	if res.Pattern != "s_trav(U)" {
		t.Errorf("canonical pattern = %q", res.Pattern)
	}
}

func TestEvaluateErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name string
		req  server.EvalRequest
	}{
		{"missing profile", server.EvalRequest{Pattern: "s_trav(U)"}},
		{"missing pattern", server.EvalRequest{Profile: "origin2000"}},
		{"unknown profile", server.EvalRequest{Profile: "pdp-11", Pattern: "s_trav(U)",
			Regions: []server.RegionDecl{{Name: "U", Items: 10, Width: 8}}}},
		{"unknown region", server.EvalRequest{Profile: "origin2000", Pattern: "s_trav(U)"}},
		{"bad region", server.EvalRequest{Profile: "origin2000", Pattern: "s_trav(U)",
			Regions: []server.RegionDecl{{Name: "U", Items: 10, Width: 0}}}},
		{"parse error", server.EvalRequest{Profile: "origin2000", Pattern: "q_trav(U)",
			Regions: []server.RegionDecl{{Name: "U", Items: 10, Width: 8}}}},
		{"duplicate region", server.EvalRequest{Profile: "origin2000", Pattern: "s_trav(U)",
			Regions: []server.RegionDecl{
				{Name: "U", Items: 10, Width: 8}, {Name: "U", Items: 20, Width: 8}}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		var res server.EvalResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Error == "" {
			t.Errorf("%s: error field empty", tc.name)
		}
	}

	// Per-item errors inside a batch do not fail the whole batch.
	batch := server.BatchRequest{Requests: []server.EvalRequest{
		{Profile: "origin2000", Pattern: "s_trav(U)",
			Regions: []server.RegionDecl{{Name: "U", Items: 10, Width: 8}}},
		{Profile: "pdp-11", Pattern: "s_trav(U)",
			Regions: []server.RegionDecl{{Name: "U", Items: 10, Width: 8}}},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with bad item: status %d", resp.StatusCode)
	}
	var res server.BatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Error != "" || res.Results[1].Error == "" {
		t.Errorf("per-item errors misplaced: %s", body)
	}
}

func TestProfilesAndHealthz(t *testing.T) {
	reg := costmodel.NewRegistry()
	if err := reg.RegisterHierarchy("test-box", costmodel.SmallTest()); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Registry: reg})

	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var profiles struct {
		Profiles []server.ProfileInfo `json:"profiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range profiles.Profiles {
		names[p.Name] = true
		if len(p.Levels) == 0 {
			t.Errorf("profile %s has no levels", p.Name)
		}
	}
	for _, want := range []string{"origin2000", "modern-x86", "small-test", "test-box"} {
		if !names[want] {
			t.Errorf("profiles missing %q: %v", want, names)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
}

// TestRegisterInvalidatesCache pins the registry-version part of the
// cache key: after re-registering a profile name with different
// hardware, the server must recompute rather than serve stale results.
func TestRegisterInvalidatesCache(t *testing.T) {
	reg := costmodel.NewRegistry()
	if err := reg.RegisterHierarchy("box", costmodel.Origin2000()); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Registry: reg})
	req := server.EvalRequest{
		Profile: "box",
		Regions: []server.RegionDecl{{Name: "U", Items: 1 << 20, Width: 8}},
		Pattern: "r_trav(U)",
	}
	first := s.Evaluate(req)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	if again := s.Evaluate(req); !again.Cached {
		t.Error("repeat evaluation not cached")
	}

	if err := reg.RegisterHierarchy("box", costmodel.SmallTest()); err != nil {
		t.Fatal(err)
	}
	after := s.Evaluate(req)
	if after.Cached {
		t.Error("stale cache entry served after profile re-registration")
	}
	if after.MemoryNS == first.MemoryNS {
		t.Error("re-registered profile produced identical cost; key likely ignored hardware")
	}
}

// TestCacheIgnoresCPUNS pins the cache-key design: T_cpu is pure
// addition (Eq. 6.1), so re-costing one pattern under varying CPU
// estimates must stay a cache hit with a correctly adjusted total.
func TestCacheIgnoresCPUNS(t *testing.T) {
	s := server.New(server.Config{})
	req := server.EvalRequest{
		Profile: "small-test",
		Regions: []server.RegionDecl{{Name: "U", Items: 1000, Width: 8}},
		Pattern: "s_trav(U)",
	}
	first := s.Evaluate(req)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	req.CPUNS = 5e6
	second := s.Evaluate(req)
	if !second.Cached {
		t.Error("changing cpu_ns broke the cache hit")
	}
	if want := first.MemoryNS + 5e6; second.TotalNS != want {
		t.Errorf("total_ns = %g, want memory %g + cpu 5e6 = %g", second.TotalNS, first.MemoryNS, want)
	}
}

// TestCacheUnpoisonable: callers own returned results; mutating one
// must not corrupt later cache hits.
func TestCacheUnpoisonable(t *testing.T) {
	s := server.New(server.Config{})
	req := server.EvalRequest{
		Profile: "small-test",
		Regions: []server.RegionDecl{{Name: "U", Items: 1000, Width: 8}},
		Pattern: "s_trav(U)",
	}
	first := s.Evaluate(req)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	wantMem, wantSeq := first.MemoryNS, first.Levels[0].SeqMisses
	first.MemoryNS = -1
	first.Levels[0].SeqMisses = -1

	second := s.Evaluate(req)
	if !second.Cached {
		t.Fatal("expected a cache hit")
	}
	if second.MemoryNS != wantMem || second.Levels[0].SeqMisses != wantSeq {
		t.Errorf("mutating a returned result poisoned the cache: got (%g, %g), want (%g, %g)",
			second.MemoryNS, second.Levels[0].SeqMisses, wantMem, wantSeq)
	}
	second.Levels[0].SeqMisses = -2
	third := s.Evaluate(req)
	if third.Levels[0].SeqMisses != wantSeq {
		t.Error("mutating a cache-hit result poisoned the cache")
	}
}

func TestLRUEviction(t *testing.T) {
	s := server.New(server.Config{CacheSize: 4})
	for i := 0; i < 16; i++ {
		res := s.Evaluate(server.EvalRequest{
			Profile: "small-test",
			Regions: []server.RegionDecl{{Name: "U", Items: int64(1000 + i), Width: 8}},
			Pattern: "s_trav(U)",
		})
		if res.Error != "" {
			t.Fatal(res.Error)
		}
	}
	if got := s.CacheLen(); got > 4 {
		t.Errorf("cache grew to %d entries, cap 4", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := server.New(server.Config{CacheSize: -1})
	req := server.EvalRequest{
		Profile: "small-test",
		Regions: []server.RegionDecl{{Name: "U", Items: 1000, Width: 8}},
		Pattern: "s_trav(U)",
	}
	s.Evaluate(req)
	if res := s.Evaluate(req); res.Cached {
		t.Error("caching disabled but result marked cached")
	}
	if s.CacheLen() != 0 {
		t.Errorf("CacheLen = %d with caching disabled", s.CacheLen())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/profiles", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/profiles: status %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentBatches hammers one server from several goroutines so
// the race detector can chew on the worker pool and the LRU.
func TestConcurrentBatches(t *testing.T) {
	s := server.New(server.Config{Workers: 3, CacheSize: 8})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var reqs []server.EvalRequest
			for i := 0; i < 6; i++ {
				reqs = append(reqs, server.EvalRequest{
					Profile: "small-test",
					Regions: []server.RegionDecl{{Name: "U", Items: int64(500 + (g+i)%4), Width: 8}},
					Pattern: fmt.Sprintf("rr_trav(%d, U)", 1+(g+i)%3),
				})
			}
			for _, r := range s.EvaluateBatch(reqs) {
				if r.Error != "" {
					done <- fmt.Errorf("batch item failed: %s", r.Error)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestResultCacheCanonicalKey: the result cache is keyed by the
// pattern's canonical form, so different spellings of the same access
// behaviour — here ⊙ operands in swapped order — share one entry.
func TestResultCacheCanonicalKey(t *testing.T) {
	srv, _ := newTestServer(t, server.Config{Workers: 1})
	regions := []server.RegionDecl{
		{Name: "U", Items: 1 << 16, Width: 16},
		{Name: "V", Items: 1 << 15, Width: 16},
	}
	a := srv.Evaluate(server.EvalRequest{
		Profile: "origin2000", Regions: regions,
		Pattern: "s_trav(U) (.) r_trav(V)",
	})
	if a.Error != "" || a.Cached {
		t.Fatalf("first request: %+v", a)
	}
	b := srv.Evaluate(server.EvalRequest{
		Profile: "origin2000", Regions: regions,
		Pattern: "r_trav(V) (.) s_trav(U)", // ⊙ is commutative
	})
	if b.Error != "" {
		t.Fatalf("second request: %+v", b)
	}
	if !b.Cached {
		t.Error("swapped ⊙ operands missed the cache; canonical keying broken")
	}
	if b.MemoryNS != a.MemoryNS {
		t.Errorf("memory_ns differs: %g vs %g", a.MemoryNS, b.MemoryNS)
	}
	// The cached hit must still echo *this* request's spelling, not
	// the spelling that populated the entry.
	if a.Pattern == b.Pattern {
		t.Errorf("cached hit echoed the other request's pattern: %q", b.Pattern)
	}

	// Explained results follow the spelling's tree shape, so the two
	// spellings must NOT share an explained cache entry.
	ea := srv.Evaluate(server.EvalRequest{
		Profile: "origin2000", Regions: regions,
		Pattern: "s_trav(U) (.) r_trav(V)", Explain: true,
	})
	eb := srv.Evaluate(server.EvalRequest{
		Profile: "origin2000", Regions: regions,
		Pattern: "r_trav(V) (.) s_trav(U)", Explain: true,
	})
	if ea.Error != "" || eb.Error != "" {
		t.Fatalf("explain requests failed: %+v / %+v", ea, eb)
	}
	if eb.Cached {
		t.Error("explained result shared a cache entry across spellings")
	}
	if len(eb.Explain) < 3 || eb.Explain[1].Pattern == ea.Explain[1].Pattern {
		t.Errorf("explain breakdown not spelling-specific: %+v vs %+v", ea.Explain, eb.Explain)
	}
}

// TestCompileCacheSharedAcrossProfiles: evaluating the same pattern on
// different profiles must compile once — the second evaluation is a
// result-cache miss (different profile) but a compile-cache hit.
func TestCompileCacheSharedAcrossProfiles(t *testing.T) {
	srv, _ := newTestServer(t, server.Config{Workers: 1})
	regions := []server.RegionDecl{{Name: "U", Items: 1 << 16, Width: 16}}
	for _, profile := range []string{"origin2000", "modern-x86", "small-test"} {
		res := srv.Evaluate(server.EvalRequest{
			Profile: profile, Regions: regions, Pattern: "rr_trav(3, U)",
		})
		if res.Error != "" || res.Cached {
			t.Fatalf("%s: %+v", profile, res)
		}
	}
	st := srv.CompileCacheStats()
	if st.Misses != 1 {
		t.Errorf("compile misses = %d, want 1 (one pattern)", st.Misses)
	}
	if st.Hits != 2 {
		t.Errorf("compile hits = %d, want 2 (two further profiles)", st.Hits)
	}
	if st.Entries != 1 {
		t.Errorf("compile cache entries = %d, want 1", st.Entries)
	}
}

// TestCompileMissInternsCanonicalProgram covers a compile-cache miss,
// where the canonicalization that produced the cache key also yields
// the compiled program: the miss must evaluate exactly like the direct
// model, and intern its program under the canonical form, so a later
// spelling with the same canonical form (⊙ operands swapped, on
// another profile, with the result cache off) is a compile-cache hit
// with the same answer as its own direct evaluation.
func TestCompileMissInternsCanonicalProgram(t *testing.T) {
	srv, _ := newTestServer(t, server.Config{Workers: 1, CacheSize: -1})
	regions := []server.RegionDecl{{Name: "U", Items: 1 << 16, Width: 16}, {Name: "V", Items: 1 << 12, Width: 8}}
	for i, req := range []server.EvalRequest{
		{Profile: "origin2000", Regions: regions, Pattern: "s_trav(U) (.) r_trav(V)"},
		{Profile: "modern-x86", Regions: regions, Pattern: "r_trav(V) (.) s_trav(U)"},
	} {
		res := srv.Evaluate(req)
		if res.Error != "" || res.Cached {
			t.Fatalf("request %d: %+v", i, res)
		}
		memNS, _ := directResult(t, req)
		if res.MemoryNS != memNS {
			t.Errorf("request %d: memory_ns = %g, direct evaluation = %g", i, res.MemoryNS, memNS)
		}
		st := srv.CompileCacheStats()
		if st.Misses != 1 || st.Hits != uint64(i) || st.Entries != 1 {
			t.Errorf("after request %d: compile cache %+v, want 1 miss, %d hits, 1 entry", i, st, i)
		}
	}
}

// TestHealthzCompileCacheCounters: the counters surface on /healthz.
func TestHealthzCompileCacheCounters(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 1})
	srv.Evaluate(server.EvalRequest{
		Profile: "origin2000",
		Regions: []server.RegionDecl{{Name: "U", Items: 4096, Width: 16}},
		Pattern: "s_trav(U)",
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status       string `json:"status"`
		CompileCache struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"compile_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q", body.Status)
	}
	if body.CompileCache.Misses != 1 || body.CompileCache.Entries != 1 {
		t.Errorf("compile_cache = %+v, want 1 miss / 1 entry", body.CompileCache)
	}
}

// TestCompileCacheDisabled: negative CompileCacheSize disables
// interning; every evaluation re-compiles and still works.
func TestCompileCacheDisabled(t *testing.T) {
	srv, _ := newTestServer(t, server.Config{Workers: 1, CompileCacheSize: -1, CacheSize: -1})
	regions := []server.RegionDecl{{Name: "U", Items: 4096, Width: 16}}
	for i := 0; i < 3; i++ {
		res := srv.Evaluate(server.EvalRequest{Profile: "origin2000", Regions: regions, Pattern: "s_trav(U)"})
		if res.Error != "" {
			t.Fatalf("evaluation %d: %+v", i, res)
		}
	}
	st := srv.CompileCacheStats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 0 {
		t.Errorf("disabled compile cache stats = %+v, want 0 hits / 3 misses / 0 entries", st)
	}
}
