package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
)

// runLoadgen drives an in-process costmodel server with an open-loop
// plan-request workload and reports serving latencies (p50/p95/p99 per
// serving path), plan-cache hit rates, and the headline serving SLO:
// a warm cache-hit p99 at least -min-speedup times faster than the
// cold full-search path on the DP-heavy anchor scenario. The report
// (BENCH_serve.json schema, see docs/serving.md) is written to -out;
// -check enforces the SLO and -snapshot gates against a committed
// reference report (1.25x tolerance), so CI fails on serving
// regressions instead of uploading worse numbers.
//
// Example:
//
//	costmodel loadgen -quick -check -out BENCH_serve.json
//	costmodel loadgen -duration 10s -rate 400 -profile modern-x86
func runLoadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		profile   = fs.String("profile", "modern-x86", "hardware profile to price plans on")
		scenarios = fs.String("scenarios", "join7-star,join8-chain,join3-chain-q3,join2-fk",
			"comma-separated catalog scenarios; the first is the cold-reference SLO anchor")
		duration = fs.Duration("duration", 10*time.Second, "open-loop phase length")
		rate     = fs.Float64("rate", 300, "request arrival rate (queries per second)")
		inline   = fs.Float64("inline", 0.3, "fraction of requests spelled as renamed inline queries")
		drift    = fs.Float64("drift", 0.2, "fraction of requests with small parameter drift (revalidation path)")
		bigDrift = fs.Float64("bigdrift", 0.02, "fraction of requests with large drift (may force a full re-search)")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
		coldIter = fs.Int("cold-iters", 3, "cold-reference search repetitions per scenario")
		probes   = fs.Int("probes", 200, "sequential warm cache-hit probes of the anchor scenario (the SLO numerator)")
		minSpeed = fs.Float64("min-speedup", 100, "SLO: cold p50 / warm cache-hit probe p99 on the anchor scenario")
		quick    = fs.Bool("quick", false, "CI smoke preset: 2s at 100 qps, 100 probes")
		out      = fs.String("out", "", "write the JSON report here ('' = stdout)")
		check    = fs.Bool("check", false, "fail unless the serving SLOs hold")
		snapshot = fs.String("snapshot", "", "committed reference report; fail if warm p99 or hit rate regresses beyond 1.25x")
	)
	fs.Parse(args)
	if *quick {
		*duration, *rate, *coldIter, *probes = 2*time.Second, 100, 2, 100
	}
	names := strings.Split(*scenarios, ",")
	rep, err := loadgenRun(loadgenConfig{
		Profile: *profile, Scenarios: names, Duration: *duration, RateQPS: *rate,
		InlineFrac: *inline, DriftFrac: *drift, BigDriftFrac: *bigDrift,
		Seed: *seed, ColdIters: *coldIter, Probes: *probes, MinSpeedup: *minSpeed, Quick: *quick,
	})
	if err != nil {
		log.Fatalf("costmodel loadgen: %v", err)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}

	var failures []string
	if *check {
		failures = append(failures, rep.checkSLO()...)
	}
	if *snapshot != "" {
		failures = append(failures, rep.checkSnapshot(*snapshot)...)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

type loadgenConfig struct {
	Profile      string        `json:"profile"`
	Scenarios    []string      `json:"scenarios"`
	Duration     time.Duration `json:"-"`
	RateQPS      float64       `json:"rate_qps"`
	InlineFrac   float64       `json:"inline_frac"`
	DriftFrac    float64       `json:"drift_frac"`
	BigDriftFrac float64       `json:"bigdrift_frac"`
	Seed         int64         `json:"seed"`
	ColdIters    int           `json:"cold_iters"`
	Probes       int           `json:"probes"`
	MinSpeedup   float64       `json:"min_speedup"`
	Quick        bool          `json:"quick"`
	DurationSec  float64       `json:"duration_s"`
}

// latencyStats summarizes one serving class's arrival-to-response
// latencies (open loop: queue wait included).
type latencyStats struct {
	Count int     `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
}

// loadgenReport is the BENCH_serve.json schema.
type loadgenReport struct {
	Config loadgenConfig `json:"config"`
	// Cold is the no-cache full-search latency per scenario (p50 over
	// ColdIters single-threaded HTTP round trips on a plan-cache-off
	// server with a warmed step cache).
	Cold map[string]latencyStats `json:"cold"`
	// WarmProbe is the sequential warm cache-hit latency on the anchor
	// scenario with no competing load — the SLO numerator. It is
	// measured the same way as Cold (single-threaded HTTP round trips),
	// so the speedup compares the serving paths, not the load mix.
	WarmProbe latencyStats `json:"warm_probe"`
	// Served classifies the open-loop phase by PlanResponse.Served.
	Served map[string]latencyStats `json:"served"`
	All    latencyStats            `json:"all"`
	// HitRate is the fraction of requests answered without a full
	// search (served == cache or revalidated).
	HitRate   float64               `json:"hit_rate"`
	PlanCache server.PlanCacheStats `json:"plan_cache"`
	SLO       sloReport             `json:"slo"`
}

type sloReport struct {
	Anchor       string  `json:"anchor"`
	ColdP50NS    float64 `json:"cold_p50_ns"`
	WarmHitP99NS float64 `json:"warm_hit_p99_ns"`
	Speedup      float64 `json:"speedup"`
	MinSpeedup   float64 `json:"min_speedup"`
	Pass         bool    `json:"pass"`
}

// minWarmP99FloorNS is the absolute floor under which warm-p99
// snapshot regressions are ignored: below ~5ms the measurement is
// dominated by scheduler and HTTP jitter, not by serving work.
const minWarmP99FloorNS = 5e6

// minHitRateFloor is the -check floor on the served-from-cache
// fraction of the open-loop phase.
const minHitRateFloor = 0.6

func (r *loadgenReport) checkSLO() []string {
	var fails []string
	if !r.SLO.Pass {
		fails = append(fails, fmt.Sprintf("serving SLO: warm cache-hit p99 %.3fms is only %.1fx faster than the cold %s search p50 %.3fms (want >= %.0fx)",
			r.SLO.WarmHitP99NS/1e6, r.SLO.Speedup, r.SLO.Anchor, r.SLO.ColdP50NS/1e6, r.SLO.MinSpeedup))
	}
	if r.HitRate < minHitRateFloor {
		fails = append(fails, fmt.Sprintf("hit rate %.3f below the %.2f floor", r.HitRate, minHitRateFloor))
	}
	return fails
}

func (r *loadgenReport) checkSnapshot(path string) []string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("snapshot %s: %v", path, err)}
	}
	var ref loadgenReport
	if err := json.Unmarshal(buf, &ref); err != nil {
		return []string{fmt.Sprintf("snapshot %s: %v", path, err)}
	}
	const tolerance = 1.25
	var fails []string
	if ref.WarmProbe.P99NS > 0 {
		bound := ref.WarmProbe.P99NS * tolerance
		if bound < minWarmP99FloorNS {
			bound = minWarmP99FloorNS
		}
		if r.WarmProbe.P99NS > bound {
			fails = append(fails, fmt.Sprintf("warm cache-hit probe p99 %.3fms regressed beyond %.2fx the snapshot's %.3fms",
				r.WarmProbe.P99NS/1e6, tolerance, ref.WarmProbe.P99NS/1e6))
		}
	}
	if ref.HitRate > 0 && r.HitRate < ref.HitRate/tolerance {
		fails = append(fails, fmt.Sprintf("hit rate %.3f regressed beyond %.2fx below the snapshot's %.3f",
			r.HitRate, tolerance, ref.HitRate))
	}
	return fails
}

func loadgenRun(cfg loadgenConfig) (*loadgenReport, error) {
	cfg.DurationSec = cfg.Duration.Seconds()
	scs := make([]scenario.Scenario, len(cfg.Scenarios))
	for i, name := range cfg.Scenarios {
		name = strings.TrimSpace(name)
		sc, ok := scenario.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (have: %v)", name, scenario.Names())
		}
		cfg.Scenarios[i], scs[i] = name, sc
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("no scenarios")
	}
	rep := &loadgenReport{Config: cfg, Cold: map[string]latencyStats{}, Served: map[string]latencyStats{}}

	// Phase A: the cold reference. A plan-cache-off server prices every
	// request with a full search; one throwaway round per scenario
	// warms the process-global step-geometry cache so the reference is
	// the steady-state search cost, not first-touch interning.
	coldURL, coldClose, err := startLoadgenServer(server.Config{PlanCacheSize: -1})
	if err != nil {
		return nil, err
	}
	for _, sc := range scs {
		req := server.PlanRequest{Profile: cfg.Profile, Scenario: sc.Name}
		if _, _, err := postPlan(coldURL, req); err != nil {
			coldClose()
			return nil, fmt.Errorf("cold warmup %s: %w", sc.Name, err)
		}
		lats := make([]float64, 0, cfg.ColdIters)
		for i := 0; i < cfg.ColdIters; i++ {
			start := time.Now()
			if _, _, err := postPlan(coldURL, req); err != nil {
				coldClose()
				return nil, fmt.Errorf("cold %s: %w", sc.Name, err)
			}
			lats = append(lats, float64(time.Since(start)))
		}
		rep.Cold[sc.Name] = summarize(lats)
	}
	coldClose()

	// Phase B: the open-loop serving phase against a caching server.
	srv := server.New(server.Config{})
	url, closeSrv, err := startServerWith(srv)
	if err != nil {
		return nil, err
	}
	defer closeSrv()
	// Warm the cache (and the step cache) with one request per
	// scenario; excluded from the stats.
	for _, sc := range scs {
		if _, _, err := postPlan(url, server.PlanRequest{Profile: cfg.Profile, Scenario: sc.Name}); err != nil {
			return nil, fmt.Errorf("warmup %s: %w", sc.Name, err)
		}
	}

	// The SLO probe: sequential warm cache-hit round trips on the
	// anchor scenario before the open-loop phase touches the entry.
	// Apples-to-apples with the cold reference — both are unloaded
	// single-threaded measurements of a serving path. (Open-loop hit
	// latencies include queueing behind concurrent full searches; they
	// characterize the load mix, not the cache, and are reported
	// separately under "served".)
	anchor := scs[0].Name
	probeReq := server.PlanRequest{Profile: cfg.Profile, Scenario: anchor}
	probeLats := make([]float64, 0, cfg.Probes)
	for i := 0; i < cfg.Probes; i++ {
		probeStart := time.Now()
		served, _, err := postPlan(url, probeReq)
		if err != nil {
			return nil, fmt.Errorf("warm probe %s: %w", anchor, err)
		}
		if served != server.PlanServedCache {
			return nil, fmt.Errorf("warm probe %s: served %q, want %q", anchor, served, server.PlanServedCache)
		}
		probeLats = append(probeLats, float64(time.Since(probeStart)))
	}
	rep.WarmProbe = summarize(probeLats)

	total := int(cfg.Duration.Seconds() * cfg.RateQPS)
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.RateQPS)
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]server.PlanRequest, total)
	for i := range reqs {
		reqs[i] = buildLoadRequest(cfg, scs[rng.Intn(len(scs))], rng)
	}

	type sample struct {
		served string
		lat    float64
	}
	samples := make([]sample, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Open loop: arrivals are scheduled on the clock, not gated on
		// completions — latency includes any queueing the server causes.
		arrival := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(arrival))
		wg.Add(1)
		go func(i int, arrival time.Time) {
			defer wg.Done()
			served, _, err := postPlan(url, reqs[i])
			if err != nil {
				served = "error"
			}
			samples[i] = sample{served: served, lat: float64(time.Since(arrival))}
		}(i, arrival)
	}
	wg.Wait()

	byServed := map[string][]float64{}
	all := make([]float64, 0, total)
	hits := 0
	for _, s := range samples {
		byServed[s.served] = append(byServed[s.served], s.lat)
		all = append(all, s.lat)
		if s.served == server.PlanServedCache || s.served == server.PlanServedRevalidated {
			hits++
		}
	}
	for served, lats := range byServed {
		rep.Served[served] = summarize(lats)
	}
	rep.All = summarize(all)
	rep.HitRate = float64(hits) / float64(total)
	rep.PlanCache = srv.PlanCacheStats()

	rep.SLO = sloReport{
		Anchor:       anchor,
		ColdP50NS:    rep.Cold[anchor].P50NS,
		WarmHitP99NS: rep.WarmProbe.P99NS,
		MinSpeedup:   cfg.MinSpeedup,
	}
	if rep.SLO.WarmHitP99NS > 0 {
		rep.SLO.Speedup = rep.SLO.ColdP50NS / rep.SLO.WarmHitP99NS
	}
	rep.SLO.Pass = rep.SLO.Speedup >= cfg.MinSpeedup
	return rep, nil
}

// buildLoadRequest picks the request's spelling and drift class.
func buildLoadRequest(cfg loadgenConfig, sc scenario.Scenario, rng *rand.Rand) server.PlanRequest {
	req := server.PlanRequest{Profile: cfg.Profile}
	r := rng.Float64()
	driftFactor := 0.0
	switch {
	case r < cfg.BigDriftFrac:
		// Large drift: cardinalities scaled up to 5x, selectivities
		// loosened — enough to dethrone cached winners now and then
		// without turning each re-search into a multi-second monster.
		driftFactor = 1 + 4*rng.Float64()
	case r < cfg.BigDriftFrac+cfg.DriftFrac:
		// Small drift: ±2% cardinality wobble; the revalidation path.
		driftFactor = 0.98 + 0.04*rng.Float64()
	}
	if driftFactor == 0 && rng.Float64() >= cfg.InlineFrac {
		req.Scenario = sc.Name
		return req
	}
	// Inline spelling (drifted queries must inline — scenarios carry
	// fixed parameters), with relations renamed and re-ordered so the
	// renamed-hit path is exercised too.
	q := sc.Query
	pq := &server.PlanQuery{GroupBy: q.GroupBy, Distinct: q.Distinct, SortBy: q.SortBy}
	perm := rng.Perm(len(q.Relations))
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	if q.Filters != nil {
		pq.Filters = make([]float64, len(q.Filters))
	}
	if q.Projections != nil {
		pq.Projections = make([]int64, len(q.Projections))
	}
	for newIdx, oldIdx := range perm {
		rel := q.Relations[oldIdx]
		tuples := rel.Tuples
		if driftFactor != 0 {
			tuples = int64(float64(tuples) * driftFactor)
			if tuples < 1 {
				tuples = 1
			}
		}
		pq.Relations = append(pq.Relations, server.PlanRelation{
			Name: fmt.Sprintf("L%d_%s", newIdx, rel.Name), Tuples: tuples, Width: rel.Width, Sorted: rel.Sorted,
		})
		if q.Filters != nil {
			pq.Filters[newIdx] = q.Filters[oldIdx]
		}
		if q.Projections != nil {
			pq.Projections[newIdx] = q.Projections[oldIdx]
		}
	}
	for _, e := range q.Joins {
		sel := e.Selectivity
		if driftFactor > 2 {
			sel = sel / driftFactor
			if sel <= 0 {
				sel = 1e-12
			}
		}
		pq.Joins = append(pq.Joins, server.PlanJoin{Left: inv[e.Left], Right: inv[e.Right], Selectivity: sel})
	}
	req.Query = pq
	return req
}

// startLoadgenServer starts a fresh in-process server on a loopback
// listener.
func startLoadgenServer(cfg server.Config) (url string, closeFn func(), err error) {
	return startServerWith(server.New(cfg))
}

func startServerWith(s *server.Server) (url string, closeFn func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { httpSrv.Close() }, nil
}

// postPlan posts one plan request and returns the Served class.
func postPlan(url string, req server.PlanRequest) (served string, res *server.PlanResponse, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	var pr server.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return "", nil, err
	}
	if pr.Error != "" {
		return "", nil, fmt.Errorf("plan request failed: %s", pr.Error)
	}
	return pr.Served, &pr, nil
}

func summarize(lats []float64) latencyStats {
	if len(lats) == 0 {
		return latencyStats{}
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	return latencyStats{Count: len(lats), P50NS: q(0.50), P95NS: q(0.95), P99NS: q(0.99)}
}
