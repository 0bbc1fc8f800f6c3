package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
	"repro/pkg/costmodel/validate"
)

// env holds the references operations are checked against. Every
// catalog-spelled or renamed plan answer is checked against the
// committed golden corpus (or a pinned known divergence from it),
// evaluation totals against the tree-walk evaluator, and validation
// reports against the committed BENCH_validate.json. Drifted inline
// plan requests, which the corpus does not cover, are checked against
// the benchmark's own re-score of the owner's recipes, which calls the
// same functions the server's revalidation does.
type env struct {
	golden   map[string]*Answer
	snapshot *validate.Report
	models   map[string]*costmodel.Model
	planHier *costmodel.Hierarchy
	// mirror holds, per owner scenario, the recipes of the benchmark's
	// own search — what the server's plan-cache entry holds.
	mirror map[string]*mirrorEntry
	// droppedDrifts counts drawn drifts that would have dethroned a
	// cached winner (and so were not sent).
	droppedDrifts int
	// evalRefs memoizes memoryNS by request (profile, regions, pattern).
	evalRefs map[string]float64
	// programs holds the traced run's compiled patterns by canonical
	// form; serve-hot's two clients share it.
	programsMu sync.Mutex
	programs   map[string]*costmodel.CompiledPattern
}

type mirrorEntry struct {
	plans   int
	fp      scenario.Fingerprint
	recipes []*scenario.Recipe
}

// goldenDir and snapshotFile are read relative to the checkout root,
// where the benchmark runs.
const (
	goldenDir    = "internal/queryplan/testdata/golden"
	snapshotFile = "BENCH_validate.json"
)

// planRescoreTopK mirrors the number of cached recipes the server
// re-scores when a request's parameters drift.
const planRescoreTopK = 5

func loadEnv(needSnapshot bool) (*env, error) {
	e := &env{golden: map[string]*Answer{}, models: map[string]*costmodel.Model{}, mirror: map[string]*mirrorEntry{}, evalRefs: map[string]float64{},
		programs: map[string]*costmodel.CompiledPattern{}}
	reg := costmodel.DefaultRegistry()
	for _, name := range evalProfiles {
		m, err := reg.Model(name)
		if err != nil {
			return nil, err
		}
		e.models[name] = m
	}
	h, err := reg.Profile(planProfile)
	if err != nil {
		return nil, err
	}
	e.planHier = h
	for _, name := range scenario.Names() {
		raw, err := os.ReadFile(filepath.Join(goldenDir, name+"."+planProfile+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden corpus: %w", err)
		}
		var g struct {
			Plans  int `json:"plans"`
			Winner struct {
				Plan    string  `json:"plan"`
				TotalNS float64 `json:"total_ns"`
			} `json:"winner"`
		}
		if err := json.Unmarshal(raw, &g); err != nil {
			return nil, fmt.Errorf("golden corpus %s: %w", name, err)
		}
		e.golden[name] = &Answer{Plan: g.Winner.Plan, TotalNS: g.Winner.TotalNS, Plans: g.Plans}
	}
	if needSnapshot {
		raw, err := os.ReadFile(snapshotFile)
		if err != nil {
			return nil, err
		}
		e.snapshot = new(validate.Report)
		if err := json.Unmarshal(raw, e.snapshot); err != nil {
			return nil, fmt.Errorf("%s: %w", snapshotFile, err)
		}
	}
	return e, nil
}

// memoryNS is the tree-walk evaluator's T_mem for an evaluation request.
func (e *env) memoryNS(req *server.EvalRequest) float64 {
	key := fmt.Sprint(req.Profile, req.Regions, req.Pattern)
	if ns, ok := e.evalRefs[key]; ok {
		return ns
	}
	regions := map[string]*costmodel.Region{}
	for _, d := range req.Regions {
		regions[d.Name] = costmodel.NewRegion(d.Name, d.Items, d.Width)
	}
	p, err := costmodel.ParsePattern(req.Pattern, regions)
	if err != nil {
		panic(fmt.Sprintf("generated pattern %q does not parse: %v", req.Pattern, err))
	}
	res, err := e.models[req.Profile].EvaluateTree(p)
	if err != nil {
		panic(fmt.Sprintf("tree-walk evaluation of %q: %v", req.Pattern, err))
	}
	e.evalRefs[key] = res.MemoryTimeNS()
	return e.evalRefs[key]
}

// owner returns the benchmark's own search of a catalog scenario,
// running it on first use.
func (e *env) owner(name string) (*mirrorEntry, error) {
	if m, ok := e.mirror[name]; ok {
		return m, nil
	}
	sc, _ := scenario.ByName(name)
	fp, err := scenario.FingerprintQuery(sc.Query)
	if err != nil {
		return nil, err
	}
	priced, err := scenario.PricePlanTreesSearch(e.planHier, sc.Query,
		scenario.SearchOptions{Strategy: scenario.SearchDP, TopK: scenario.DefaultTopK})
	if err != nil {
		return nil, err
	}
	m := &mirrorEntry{plans: len(priced), fp: fp}
	for _, pp := range priced {
		r, err := scenario.NewRecipe(pp.Tree, sc.Query, fp)
		if err != nil {
			return nil, err
		}
		m.recipes = append(m.recipes, r)
	}
	e.mirror[name] = m
	return m, nil
}

// rescore re-binds the owner's best cached recipes to q and re-scores
// them, as the server's revalidation does. keeps reports whether the
// owner's winner stays cheapest, i.e. whether the server answers q
// from its cache entry; want is that answer.
func (e *env) rescore(ownerName string, q scenario.Query) (want *Answer, keeps bool, err error) {
	m, err := e.owner(ownerName)
	if err != nil {
		return nil, false, err
	}
	fp, err := scenario.FingerprintQuery(q)
	if err != nil {
		return nil, false, err
	}
	if fp.Key != m.fp.Key {
		return nil, false, nil
	}
	k := min(planRescoreTopK, len(m.recipes))
	trees := make([]*scenario.Plan, k)
	for i := range trees {
		if trees[i], err = scenario.BindRecipe(m.recipes[i], q, fp); err != nil {
			return nil, false, err
		}
	}
	plans, err := scenario.RescorePlans(e.planHier, trees)
	if err != nil {
		return nil, false, err
	}
	for _, p := range plans[1:] {
		if p.TotalNS() < plans[0].TotalNS() {
			return nil, false, nil
		}
	}
	return &Answer{Plan: string(plans[0].Algorithm), TotalNS: plans[0].TotalNS(), Plans: m.plans}, true, nil
}

// Tolerances: plan totals are recomputed by the same arithmetic and
// must agree to rounding; evaluation totals compare two evaluators
// (flat IR and tree walk) at internal/cost's parity tolerance.
const (
	planRelTol = 1e-9
	evalRelTol = 1e-6
)

func near(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkPlan checks a plan response against the declared served path
// and answer (nil: the form alone is checked). With golden set, want is
// a pinned known divergence from the golden answer, and the response
// must match one of the two; diverged reports that it matched want.
func checkPlan(res *server.PlanResponse, served string, want, golden *Answer) (diverged bool, err error) {
	if res.Error != "" {
		return false, fmt.Errorf("error %q", res.Error)
	}
	if res.Served != served {
		return false, fmt.Errorf("served %q, declared %q", res.Served, served)
	}
	if res.Plans <= 0 || len(res.Ranking) == 0 {
		return false, fmt.Errorf("empty ranking (plans=%d)", res.Plans)
	}
	if res.Winner != res.Ranking[0] {
		return false, fmt.Errorf("winner %v is not ranking[0] %v", res.Winner, res.Ranking[0])
	}
	if !sort.SliceIsSorted(res.Ranking, func(i, j int) bool { return res.Ranking[i].TotalNS < res.Ranking[j].TotalNS }) {
		return false, fmt.Errorf("ranking not sorted by total_ns")
	}
	matches := func(a *Answer) bool {
		return res.Winner.Plan == a.Plan && near(res.Winner.TotalNS, a.TotalNS, planRelTol) && res.Plans == a.Plans
	}
	switch {
	case want == nil, golden != nil && matches(golden):
		return false, nil
	case matches(want):
		return golden != nil, nil
	case golden != nil:
		return false, fmt.Errorf("answer %s %.17g ns (%d plans), want golden %s %.17g ns (%d plans) or the pinned divergence %s %.17g ns (%d plans)",
			res.Winner.Plan, res.Winner.TotalNS, res.Plans, golden.Plan, golden.TotalNS, golden.Plans, want.Plan, want.TotalNS, want.Plans)
	}
	return false, fmt.Errorf("answer %s %.17g ns (%d plans), want %s %.17g ns (%d plans)",
		res.Winner.Plan, res.Winner.TotalNS, res.Plans, want.Plan, want.TotalNS, want.Plans)
}

// checkEval checks evaluation results against the declared cached
// flags and the tree-walk totals.
func checkEval(results []*server.EvalResult, cached []bool, totals []float64) error {
	if len(results) != len(cached) {
		return fmt.Errorf("%d results for %d requests", len(results), len(cached))
	}
	for i, r := range results {
		if r == nil || r.Error != "" {
			return fmt.Errorf("result %d failed: %v", i, r)
		}
		if r.Cached != cached[i] {
			return fmt.Errorf("result %d: cached=%t, declared %t", i, r.Cached, cached[i])
		}
		if !near(r.TotalNS, totals[i], evalRelTol) {
			return fmt.Errorf("result %d: total_ns %.17g, tree walk %.17g", i, r.TotalNS, totals[i])
		}
	}
	return nil
}

// checkValidate compares a validation report with the committed one.
func (e *env) checkValidate(rep *validate.Report) error {
	return rep.SameNumbers(e.snapshot)
}
