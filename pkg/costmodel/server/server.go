// Package server exposes the cost model as an HTTP/JSON batch
// evaluation service. Analytical cost models earn their keep by being
// cheap enough to call at optimizer-request rates; this server makes
// that cheapness available over the network:
//
//	POST /v1/evaluate   evaluate one request, or a {"requests": [...]}
//	                    batch fanned out across a bounded worker pool
//	POST /v1/plan       price whole query plans: rank join orders and
//	                    algorithm choices for a catalog scenario or an
//	                    inline logical query (see plan.go)
//	GET  /v1/profiles   list the registered hardware profiles
//	POST /v1/calibrate  start an async hardware self-calibration job;
//	                    GET ?id= polls it (see calibrate.go)
//	GET  /v1/validate   predicted-vs-simulated validation sweep with
//	                    per-operator relative errors
//	GET  /healthz       liveness probe
//
// Repeated (pattern, regions, profile) evaluations are memoized in an
// LRU result cache; responses carry a "cached" flag so callers (and
// tests) can observe the hit path. A calibrated profile lands in the
// same registry /v1/evaluate resolves names through, so "calibrate this
// machine, then cost plans on it" needs no restart.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/pkg/costmodel"
)

// Config parameterizes a Server.
type Config struct {
	// Registry resolves profile names; nil means the package default
	// registry (built-in profiles plus anything registered at runtime).
	Registry *costmodel.Registry
	// Workers bounds concurrent evaluations across all in-flight HTTP
	// requests; 0 or negative means GOMAXPROCS.
	Workers int
	// CacheSize is the maximum number of memoized results; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// CompileCacheSize is the maximum number of interned compiled
	// patterns; 0 means DefaultCompileCacheSize, negative disables the
	// compile cache (every evaluation re-compiles).
	CompileCacheSize int
	// PlanCacheSize is the maximum number of cached plan-search results
	// (keyed by query shape fingerprint; see plan.go); 0 means
	// DefaultPlanCacheSize, negative disables the plan cache (every
	// /v1/plan request re-searches).
	PlanCacheSize int
}

// DefaultCacheSize is the result-cache capacity used when
// Config.CacheSize is 0.
const DefaultCacheSize = 4096

// DefaultCompileCacheSize is the compile-cache capacity used when
// Config.CompileCacheSize is 0. Compiled patterns are keyed by
// canonical form only — no profile, no Explain flag — so one entry
// serves every hardware profile a pattern is evaluated on.
const DefaultCompileCacheSize = 1024

// DefaultPlanCacheSize is the plan-cache capacity used when
// Config.PlanCacheSize is 0. Plan entries are keyed by query *shape*
// (the canonical join-graph fingerprint), so a serving workload of
// parameterized queries collapses onto a handful of entries; the
// capacity mainly bounds adversarial shape churn.
const DefaultPlanCacheSize = 512

// MaxBatchRequests bounds the number of evaluations in one batch
// request. A batch beyond the bound is rejected outright (never
// silently truncated): one request must not monopolize the worker pool
// for an unbounded stretch.
const MaxBatchRequests = 4096

// Server evaluates cost-model requests over HTTP.
type Server struct {
	reg   *costmodel.Registry
	sem   chan struct{}
	cache *lruCache[*EvalResult]
	// compileCache interns compiled patterns by canonical form, so
	// batch requests and repeated evaluations across different
	// profiles share compilation work (the result cache above only
	// hits on exact pattern+profile pairs).
	compileCache  *lruCache[*costmodel.CompiledPattern]
	compileHits   atomic.Uint64
	compileMisses atomic.Uint64
	resultHits    atomic.Uint64
	resultMisses  atomic.Uint64
	// batchDedupHits counts batch requests answered by another request
	// of the same batch (same canonical program, profile, and explain
	// spelling); batchDedupMisses counts the batch leaders that were
	// actually evaluated.
	batchDedupHits   atomic.Uint64
	batchDedupMisses atomic.Uint64
	// planCache memoizes /v1/plan search results by query shape
	// fingerprint (plan.go); revalidations count cached entries served
	// after a cheap parameter-drift re-score, revalMisses count drifts
	// where the cached winner lost and a full re-search ran.
	planCache         *lruCache[*planEntry]
	planHits          atomic.Uint64
	planMisses        atomic.Uint64
	planRevalidations atomic.Uint64
	planRevalMisses   atomic.Uint64
	calib             *calibJobs
	// validating single-flights GET /v1/validate: one sweep already
	// saturates its own worker pool, so concurrent sweeps would only
	// multiply simulator memory and defeat the Workers bound.
	validating chan struct{}
	// calibrating single-flights POST /v1/calibrate jobs: concurrent
	// host calibrations would contend for memory bandwidth and corrupt
	// each other's wall-clock latency estimates (and each job may hold
	// a footprint-sized buffer).
	calibrating chan struct{}
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = costmodel.DefaultRegistry()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	var cache *lruCache[*EvalResult]
	if size > 0 {
		cache = newLRUCache[*EvalResult](size)
	}
	csize := cfg.CompileCacheSize
	if csize == 0 {
		csize = DefaultCompileCacheSize
	}
	var ccache *lruCache[*costmodel.CompiledPattern]
	if csize > 0 {
		ccache = newLRUCache[*costmodel.CompiledPattern](csize)
	}
	psize := cfg.PlanCacheSize
	if psize == 0 {
		psize = DefaultPlanCacheSize
	}
	var pcache *lruCache[*planEntry]
	if psize > 0 {
		pcache = newLRUCache[*planEntry](psize)
	}
	return &Server{
		reg:          reg,
		sem:          make(chan struct{}, workers),
		cache:        cache,
		compileCache: ccache,
		planCache:    pcache,
		calib:        newCalibJobs(),
		validating:   make(chan struct{}, 1),
		calibrating:  make(chan struct{}, 1),
	}
}

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/profiles", s.handleProfiles)
	mux.HandleFunc("/v1/calibrate", s.handleCalibrate)
	mux.HandleFunc("/v1/validate", s.handleValidate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// RegionDecl declares one data region of an evaluation request.
type RegionDecl struct {
	// Name is the identifier the pattern text refers to ("U", "H", ...).
	Name string `json:"name"`
	// Items is the region's item count R.n.
	Items int64 `json:"items"`
	// Width is the per-item width R.w in bytes.
	Width int64 `json:"width"`
}

// EvalRequest is one pattern+profile evaluation.
type EvalRequest struct {
	// Profile names a registered hardware profile.
	Profile string `json:"profile"`
	// Regions declares the data regions the pattern refers to.
	Regions []RegionDecl `json:"regions"`
	// Pattern is a Table 2 pattern expression over the declared regions.
	Pattern string `json:"pattern"`
	// CPUNS is the pure CPU time T_cpu in nanoseconds (Eq. 6.1); the
	// response's total_ns adds it to the predicted memory time.
	CPUNS float64 `json:"cpu_ns,omitempty"`
	// Explain requests the per-pattern-node cost breakdown.
	Explain bool `json:"explain,omitempty"`
}

// BatchRequest wraps multiple evaluations into one HTTP request.
type BatchRequest struct {
	Requests []EvalRequest `json:"requests"`
}

// LevelCost is one hierarchy level's predicted misses and time.
type LevelCost struct {
	Level     string  `json:"level"`
	SeqMisses float64 `json:"seq_misses"`
	RndMisses float64 `json:"rnd_misses"`
	TimeNS    float64 `json:"time_ns"`
}

// ExplainLine is one pattern-tree node of an explained prediction.
type ExplainLine struct {
	Pattern string  `json:"pattern"`
	Depth   int     `json:"depth"`
	Kind    string  `json:"kind"`
	TimeNS  float64 `json:"time_ns"`
}

// EvalResult is the prediction for one EvalRequest.
type EvalResult struct {
	Profile string `json:"profile"`
	// Pattern is the canonical rendering of the parsed pattern.
	Pattern string      `json:"pattern"`
	Levels  []LevelCost `json:"levels,omitempty"`
	// MemoryNS is T_mem (Eq. 3.1).
	MemoryNS float64 `json:"memory_ns"`
	// TotalNS is T = T_mem + T_cpu (Eq. 6.1).
	TotalNS float64       `json:"total_ns"`
	Explain []ExplainLine `json:"explain,omitempty"`
	// Cached reports whether the result came from the LRU cache.
	Cached bool `json:"cached"`
	// Error is set (and all cost fields zero) when the request failed.
	Error string `json:"error,omitempty"`
}

// BatchResponse mirrors BatchRequest: one result per request, in order.
type BatchResponse struct {
	Results []*EvalResult `json:"results"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}

	// A body with a "requests" array is a batch; anything else is a
	// single EvalRequest.
	var batch BatchRequest
	if err := json.Unmarshal(body, &batch); err == nil && batch.Requests != nil {
		if len(batch.Requests) > MaxBatchRequests {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("batch of %d requests exceeds the maximum of %d", len(batch.Requests), MaxBatchRequests))
			return
		}
		resp := BatchResponse{Results: s.EvaluateBatch(batch.Requests)}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var req EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	res := s.Evaluate(req)
	status := http.StatusOK
	if res.Error != "" {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, res)
}

// EvaluateBatch evaluates the requests concurrently, returning results
// in request order. Requests whose canonical programs coincide — same
// canonical pattern, profile, and explain spelling — collapse onto one
// evaluation: the first occurrence (the leader) is evaluated, the rest
// clone its result (re-echoing their own pattern spelling and adding
// their own CPU estimate), so an optimizer batch re-costing one plan
// shape under many CPU estimates pays for a single grid point. The
// pool spawns at most worker-pool-many goroutines (not one per request
// — a maximal batch would otherwise allocate hundreds of thousands of
// stacks); the semaphore inside Evaluate keeps the bound global across
// concurrent batches.
func (s *Server) EvaluateBatch(reqs []EvalRequest) []*EvalResult {
	results := make([]*EvalResult, len(reqs))

	// Dedup prepass: parse and canonicalize each request, electing the
	// first request of every distinct result key as its leader.
	// Requests that fail to parse resolve here (their error result is
	// exactly what Evaluate would return) and never reach the pool.
	// Leaders keep their parsed pattern and canonical form, so their
	// evaluation neither re-parses nor re-canonicalizes.
	leader := make(map[string]int, len(reqs))
	followOf := make([]int, len(reqs))
	spelling := make([]string, len(reqs))
	parsed := make([]costmodel.Pattern, len(reqs))
	canons := make([]string, len(reqs))
	var leaders []int
	for i := range reqs {
		followOf[i] = -1
		p, errRes := s.parseRequest(reqs[i])
		if errRes != nil {
			results[i] = errRes
			continue
		}
		canon, err := costmodel.CanonicalPattern(p)
		if err != nil {
			results[i] = canonError(reqs[i], p, err)
			continue
		}
		key := s.resultKey(reqs[i], p, canon)
		spelling[i] = p.String()
		if li, ok := leader[key]; ok {
			followOf[i] = li
			s.batchDedupHits.Add(1)
		} else {
			leader[key] = i
			leaders = append(leaders, i)
			parsed[i], canons[i] = p, canon
			s.batchDedupMisses.Add(1)
		}
	}

	workers := cap(s.sem)
	if workers > len(leaders) {
		workers = len(leaders)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				p, canon := parsed[i], canons[i]
				results[i] = s.evaluateParsed(reqs[i], p, func(keep func(string) bool) (*costmodel.CompiledPattern, error) {
					if !keep(canon) {
						return nil, nil
					}
					return costmodel.Compile(p)
				})
			}
		}()
	}
	for _, i := range leaders {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Followers share their leader's evaluation. Each gets a private
	// copy carrying its own spelling and CPU estimate; Cached marks the
	// result as served without a fresh evaluation.
	for i, li := range followOf {
		if li < 0 {
			continue
		}
		res := results[li].clone()
		res.Pattern = spelling[i]
		res.TotalNS = res.MemoryNS + reqs[i].CPUNS
		if res.Error == "" {
			res.Cached = true
		}
		results[i] = res
	}
	return results
}

// parseRequest validates and parses one request's regions and pattern
// text. A non-nil errRes is the exact error result Evaluate returns
// for the malformed request.
func (s *Server) parseRequest(req EvalRequest) (p costmodel.Pattern, errRes *EvalResult) {
	if req.Profile == "" {
		return nil, &EvalResult{Error: "missing profile"}
	}
	if req.Pattern == "" {
		return nil, &EvalResult{Profile: req.Profile, Error: "missing pattern"}
	}
	regions := make(map[string]*costmodel.Region, len(req.Regions))
	for _, d := range req.Regions {
		if d.Name == "" || d.Items < 0 || d.Width <= 0 {
			return nil, &EvalResult{Profile: req.Profile,
				Error: fmt.Sprintf("invalid region %q (items=%d, width=%d)", d.Name, d.Items, d.Width)}
		}
		if _, dup := regions[d.Name]; dup {
			return nil, &EvalResult{Profile: req.Profile,
				Error: fmt.Sprintf("region %q declared twice", d.Name)}
		}
		regions[d.Name] = costmodel.NewRegion(d.Name, d.Items, d.Width)
	}
	p, err := costmodel.ParsePattern(req.Pattern, regions)
	if err != nil {
		return nil, &EvalResult{Profile: req.Profile, Error: err.Error()}
	}
	return p, nil
}

// canonError is the result for a parsed pattern that fails to
// canonicalize (it does not validate).
func canonError(req EvalRequest, p costmodel.Pattern, err error) *EvalResult {
	return &EvalResult{Profile: req.Profile, Pattern: p.String(), Error: err.Error()}
}

// resultKey is the result-cache (and in-batch dedup) key: the
// pattern's *canonical* form — region geometries embedded, ⊕
// flattened, ⊙ operands sorted — so any two spellings of the same
// access behaviour share an entry. Two exclusions keep the entry
// request-agnostic: CPUNS, because T_cpu is pure addition on top of
// the memory-side result (Eq. 6.1), so re-costing one pattern under
// varying CPU estimates — the optimizer's common case — stays a cache
// hit (it is applied after the cache); and the pattern echo, which is
// rewritten to each request's spelling on every hit. Explained results
// are the exception: the per-node breakdown follows the spelling's
// tree shape, so the key also carries the parsed rendering. The
// registry version invalidates entries when a profile name is
// re-registered.
func (s *Server) resultKey(req EvalRequest, p costmodel.Pattern, canon string) string {
	key := fmt.Sprintf("v%d|%q|%s|%t", s.reg.Version(), req.Profile, canon, req.Explain)
	if req.Explain {
		key += "|" + p.String()
	}
	return key
}

// Evaluate evaluates one request, consulting the result cache first.
// Cache misses run on the server's bounded worker pool, so Workers
// bounds concurrency for single requests and batches alike.
func (s *Server) Evaluate(req EvalRequest) *EvalResult {
	p, errRes := s.parseRequest(req)
	if errRes != nil {
		return errRes
	}
	return s.evaluateParsed(req, p, func(keep func(string) bool) (*costmodel.CompiledPattern, error) {
		return costmodel.CompileIf(p, keep)
	})
}

// evaluateParsed evaluates the parsed pattern p of req. compileIf has
// costmodel.CompileIf's contract for p: it hands p's canonical form to
// keep and compiles p only if keep returns true. Evaluate canonicalizes
// there; a batch leader passes the canonical form its dedup prepass
// already computed. One canonicalization thus serves the result-cache
// lookup, the compile-cache lookup and, on a miss in both, the compile
// (a batch leader's compile canonicalizes p again).
func (s *Server) evaluateParsed(req EvalRequest, p costmodel.Pattern,
	compileIf func(keep func(string) bool) (*costmodel.CompiledPattern, error)) *EvalResult {
	var (
		canon, key string
		res        *EvalResult
		prog       *costmodel.CompiledPattern
	)
	compiled, err := compileIf(func(c string) bool {
		canon, key = c, s.resultKey(req, p, c)
		if res = s.cachedResult(key); res != nil {
			return false
		}
		prog = s.cachedProgram(canon)
		return prog == nil
	})
	if err != nil {
		return canonError(req, p, err)
	}
	cached := res != nil
	if cached {
		res.Pattern = p.String()
	} else {
		if compiled != nil {
			prog = compiled
			if s.compileCache != nil {
				s.compileCache.put(canon, prog)
			}
		}
		s.sem <- struct{}{}
		res = s.evaluate(req, p, prog)
		<-s.sem
		if s.cache != nil && res.Error == "" {
			// The cache keeps its own copy: callers own the returned
			// result and may mutate it without poisoning later hits.
			s.cache.put(key, res.clone())
		}
	}
	res.TotalNS = res.MemoryNS + req.CPUNS
	res.Cached = cached
	return res
}

// cachedResult returns a private copy of the cached result under key,
// or nil on a miss, counting either.
func (s *Server) cachedResult(key string) *EvalResult {
	if s.cache == nil {
		return nil
	}
	if hit, ok := s.cache.get(key); ok {
		s.resultHits.Add(1)
		return hit.clone()
	}
	s.resultMisses.Add(1)
	return nil
}

// cachedProgram returns the program interned under a canonical form,
// or nil on a miss, counting either. Hits share one immutable program
// across requests, batches and profiles.
func (s *Server) cachedProgram(canon string) *costmodel.CompiledPattern {
	if s.compileCache != nil {
		if hit, ok := s.compileCache.get(canon); ok {
			s.compileHits.Add(1)
			return hit
		}
	}
	s.compileMisses.Add(1)
	return nil
}

// clone returns a copy sharing no mutable state with r.
func (r *EvalResult) clone() *EvalResult {
	c := *r
	c.Levels = append([]LevelCost(nil), r.Levels...)
	c.Explain = append([]ExplainLine(nil), r.Explain...)
	return &c
}

func (s *Server) evaluate(req EvalRequest, p costmodel.Pattern, prog *costmodel.CompiledPattern) *EvalResult {
	model, err := s.reg.Model(req.Profile)
	if err != nil {
		return &EvalResult{Profile: req.Profile, Error: err.Error()}
	}
	// The compiled program carries no profile state: the same prog is
	// evaluated here against whichever hierarchy the request names.
	eval := model.EvaluateCompiled(prog)
	// TotalNS is left for the caller (Evaluate adds req.CPUNS after the
	// cache, so cached entries stay CPU-estimate-agnostic).
	res := &EvalResult{
		Profile:  req.Profile,
		Pattern:  p.String(),
		MemoryNS: eval.MemoryTimeNS(),
	}
	for _, lr := range eval.PerLevel {
		res.Levels = append(res.Levels, LevelCost{
			Level:     lr.Level.Name,
			SeqMisses: lr.Misses.Seq,
			RndMisses: lr.Misses.Rnd,
			TimeNS:    lr.MemoryTimeNS(),
		})
	}
	if req.Explain {
		ex, err := model.Explain(p)
		if err != nil {
			return &EvalResult{Profile: req.Profile, Pattern: p.String(), Error: err.Error()}
		}
		for _, n := range ex.Nodes {
			res.Explain = append(res.Explain, ExplainLine{
				Pattern: n.Pattern, Depth: n.Depth, Kind: n.Kind, TimeNS: n.TimeNS,
			})
		}
	}
	return res
}

// ProfileInfo describes one registered profile.
type ProfileInfo struct {
	Name    string      `json:"name"`
	Machine string      `json:"machine"`
	ClockNS float64     `json:"clock_ns"`
	Levels  []LevelInfo `json:"levels"`
}

// LevelInfo describes one level of a profile.
type LevelInfo struct {
	Name             string  `json:"name"`
	Capacity         int64   `json:"capacity"`
	LineSize         int64   `json:"line_size"`
	Associativity    int     `json:"associativity"`
	SeqMissLatencyNS float64 `json:"seq_miss_latency_ns"`
	RndMissLatencyNS float64 `json:"rnd_miss_latency_ns"`
	TLB              bool    `json:"tlb,omitempty"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var out struct {
		Profiles []ProfileInfo `json:"profiles"`
	}
	for _, name := range s.reg.Names() {
		h, err := s.reg.Profile(name)
		if err != nil {
			continue
		}
		info := ProfileInfo{Name: name, Machine: h.Name, ClockNS: h.ClockNS}
		for _, l := range h.Levels {
			info.Levels = append(info.Levels, LevelInfo{
				Name:             l.Name,
				Capacity:         l.Capacity,
				LineSize:         l.LineSize,
				Associativity:    l.Associativity,
				SeqMissLatencyNS: l.SeqMissLatency,
				RndMissLatencyNS: l.RndMissLatency,
				TLB:              l.TLB,
			})
		}
		out.Profiles = append(out.Profiles, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cc := s.CompileCacheStats()
	rc := s.ResultCacheStats()
	pc := s.PlanCacheStats()
	bd := s.BatchDedupStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"profiles": len(s.reg.Names()),
		"workers":  cap(s.sem),
		"compile_cache": map[string]any{
			"hits":      cc.Hits,
			"misses":    cc.Misses,
			"entries":   cc.Entries,
			"evictions": cc.Evictions,
		},
		"result_cache": map[string]any{
			"hits":      rc.Hits,
			"misses":    rc.Misses,
			"entries":   rc.Entries,
			"evictions": rc.Evictions,
		},
		"batch_dedup": map[string]any{
			"hits":   bd.Hits,
			"misses": bd.Misses,
		},
		"plan_cache": map[string]any{
			"hits":                pc.Hits,
			"misses":              pc.Misses,
			"revalidations":       pc.Revalidations,
			"revalidation_misses": pc.RevalidationMisses,
			"entries":             pc.Entries,
			"evictions":           pc.Evictions,
		},
	})
}

// CacheLen returns the number of memoized results (0 when caching is
// disabled).
func (s *Server) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.len()
}

// CompileCacheStats reports the compile cache's cumulative hit/miss
// counters and current entry count (also exposed on /healthz).
type CompileCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
}

// CompileCacheStats returns the compile cache counters.
func (s *Server) CompileCacheStats() CompileCacheStats {
	st := CompileCacheStats{
		Hits:   s.compileHits.Load(),
		Misses: s.compileMisses.Load(),
	}
	if s.compileCache != nil {
		st.Entries = s.compileCache.len()
		st.Evictions = s.compileCache.evicted()
	}
	return st
}

// ResultCacheStats reports the result cache's cumulative hit/miss
// counters and current entry count (also exposed on /healthz). Hits
// count any request answered from a memoized result — including a
// differently spelled but canonically equivalent pattern.
type ResultCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
}

// ResultCacheStats returns the result cache counters.
func (s *Server) ResultCacheStats() ResultCacheStats {
	st := ResultCacheStats{
		Hits:   s.resultHits.Load(),
		Misses: s.resultMisses.Load(),
	}
	if s.cache != nil {
		st.Entries = s.cache.len()
		st.Evictions = s.cache.evicted()
	}
	return st
}

// BatchDedupStats reports the in-batch dedup counters (also exposed on
// /healthz): Hits count batch requests that collapsed onto another
// request of the same batch — same canonical program, profile, and
// explain spelling — and were served by cloning its result; Misses
// count the batch leaders that were evaluated (or served from the
// result cache) on the pool.
type BatchDedupStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// BatchDedupStats returns the in-batch dedup counters.
func (s *Server) BatchDedupStats() BatchDedupStats {
	return BatchDedupStats{
		Hits:   s.batchDedupHits.Load(),
		Misses: s.batchDedupMisses.Load(),
	}
}

// PlanCacheStats reports the shape-keyed plan cache's cumulative
// counters and current entry count (also exposed on /healthz).
// Hits count requests served straight from a cached ranking (same
// shape, same parameters, possibly renamed relations); Revalidations
// count parameter-drifted requests served after re-scoring the cached
// candidate recipes with the IR evaluator; RevalidationMisses count
// drifts where the cached winner lost the top spot and a full
// plan-space re-search ran instead.
type PlanCacheStats struct {
	Hits               uint64 `json:"hits"`
	Misses             uint64 `json:"misses"`
	Revalidations      uint64 `json:"revalidations"`
	RevalidationMisses uint64 `json:"revalidation_misses"`
	Entries            int    `json:"entries"`
	Evictions          uint64 `json:"evictions"`
}

// PlanCacheStats returns the plan cache counters.
func (s *Server) PlanCacheStats() PlanCacheStats {
	st := PlanCacheStats{
		Hits:               s.planHits.Load(),
		Misses:             s.planMisses.Load(),
		Revalidations:      s.planRevalidations.Load(),
		RevalidationMisses: s.planRevalMisses.Load(),
	}
	if s.planCache != nil {
		st.Entries = s.planCache.len()
		st.Evictions = s.planCache.evicted()
	}
	return st
}

// readJSON decodes a size-capped request body into v.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(body) == 0 {
		return nil // an empty body means all-default fields
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
