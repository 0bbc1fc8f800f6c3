package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"regexp"
	"strings"

	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
)

// Op is one operation of a workload: one HTTP request (a batch counts
// as one) or one validation grid, together with the answer it must get.
type Op struct {
	// Client is the closed-loop client that sends the operation.
	Client int `json:"client"`
	// Exactly one of Plan, Eval, Batch and Validate is set.
	Plan     *server.PlanRequest  `json:"plan,omitempty"`
	Eval     *server.EvalRequest  `json:"eval,omitempty"`
	Batch    *server.BatchRequest `json:"batch,omitempty"`
	Validate bool                 `json:"validate,omitempty"`

	// Served is the path a plan request must be answered by.
	Served string `json:"served,omitempty"`
	// Shape names the catalog scenario that owns the plan request's
	// cache entry (or, with the plan cache off, the scenario itself).
	Shape string `json:"shape,omitempty"`
	// Want is the plan answer the response must carry.
	Want *Answer `json:"want,omitempty"`
	// Golden, when set, is the golden-corpus answer of a catalog-spelled
	// request whose expected answer (Want) is a pinned known divergence
	// from it: the response must match one of the two exactly.
	Golden *Answer `json:"golden,omitempty"`

	// Cached holds the cached flag each evaluation result must carry
	// (one entry for a single request).
	Cached []bool `json:"cached,omitempty"`
	// TotalNS holds each evaluation's expected total_ns, from the
	// tree-walk evaluator.
	TotalNS []float64 `json:"total_ns,omitempty"`
}

// Answer is the part of a plan response the benchmark checks exactly.
type Answer struct {
	Plan    string  `json:"plan"`
	TotalNS float64 `json:"total_ns"`
	Plans   int     `json:"plans"`
}

// planProfile is the profile every plan workload prices on; the golden
// corpus locks its answers.
const planProfile = "modern-x86"

// hotShapes are the catalog shapes serve-hot plans against: each owns
// its plan-cache entry (no other scenario shares its fingerprint) and
// searches in well under a second from a cold step cache.
var hotShapes = []string{
	"scan-filter", "scan-project", "groupby-sorted-input", "distinct-dense",
	"join2-sorted", "join2-fk", "join4-chain", "join5-cycle",
}

// evalProfiles are the profiles serve-hot evaluates patterns on. Every
// pattern is first evaluated on evalProfiles[0] during set-up; the
// measured phase prices some of them on the other two, which hits the
// compile cache (keyed by canonical form only) and misses the result
// cache (keyed by profile too).
var evalProfiles = []string{"origin2000", "small-test", "modern-x86"}

// serveHotMix is the per-client share of each serve-hot operation kind.
// The counts are exact, so every seed runs the same mix in another order.
// No recorded traffic in the repository splits /v1/plan from
// /v1/evaluate, so plan, single and batch are chosen, not measured:
// plans and evaluations carry comparable weight in the per-operation
// figures, and batches are about 30% of evaluation requests so batch
// dedup has a ratio to report. fresh is the miss share of the 0.99 plan
// hit rate recorded in BENCH_serve.json.
var serveHotMix = struct{ plan, single, batch, fresh float64 }{
	plan: 0.40, single: 0.42, batch: 0.17, fresh: 0.01,
}

// inlineRounds of every ten rounds of hot-shape plan requests are
// spelled inline with the relations renamed and reordered: the
// inline_frac of 0.3 in BENCH_serve.json's loadgen configuration.
const inlineRounds = 3

// maxFreshPerClient keeps every pattern × profile pair a client creates
// inside the server's result and compile caches, so no entry is ever
// evicted and the declared cached flags stay exact at any run length.
const maxFreshPerClient = 900

// genServeHot builds serve-hot's operations for two clients. Set-up
// searches every hot shape once from its catalog spelling and evaluates
// every pattern of the pool once; the measured list then only repeats
// them: exact and renamed plan spellings (plan-cache hits), evaluations
// of cached pairs singly and in batches with in-batch repeats, and a
// fixed share of first evaluations on another profile.
func genServeHot(rng *rand.Rand, n int, e *env, emit func(Op)) (warm []Op, err error) {
	for _, name := range hotShapes {
		warm = append(warm, Op{Plan: &server.PlanRequest{Profile: planProfile, Scenario: name},
			Served: server.PlanServedSearch, Shape: name, Want: e.golden[name]})
	}
	const clients = 2
	perClient := n / clients
	for c := 0; c < clients; c++ {
		g := hotGen{rng: rng, client: c, env: e}
		kinds := exactMix(perClient, []float64{serveHotMix.plan, serveHotMix.single, serveHotMix.batch, serveHotMix.fresh})
		fresh := kinds[3]
		if fresh > maxFreshPerClient {
			kinds[1] += fresh - maxFreshPerClient
			fresh, kinds[3] = maxFreshPerClient, maxFreshPerClient
		}
		// Each pattern gets at most len(evalProfiles)-1 first
		// evaluations in the measured phase.
		g.newPool((fresh+len(evalProfiles)-2)/(len(evalProfiles)-1) + 16)
		for i := range g.pool {
			warm = append(warm, g.eval(i, 0, false))
		}
		seq := shuffledKinds(rng, kinds)
		plans := 0
		for _, k := range seq {
			switch k {
			case 0:
				emit(g.plan(plans))
				plans++
			case 1:
				emit(g.repeat())
			case 2:
				emit(g.batch())
			case 3:
				emit(g.fresh())
			}
		}
	}
	return warm, nil
}

// hotGen generates one serve-hot client's operations. The client owns
// its pattern pool, so the other client never touches its result-cache
// entries and every declared cached flag holds under any interleaving.
type hotGen struct {
	rng    *rand.Rand
	client int
	env    *env
	pool   []evalPattern
	// cachedPairs lists (pattern, profile index) pairs already in the
	// result cache; next[i] is pattern i's next unused profile.
	cachedPairs [][2]int
	next        []int
	freshNext   int
}

type evalPattern struct {
	text    string
	regions []server.RegionDecl
}

// patternTemplates spell Table 2 patterns over regions U, V, W and H;
// the %d verbs take per-pattern repetition counts.
var patternTemplates = []struct {
	text    string
	regions string
}{
	{"s_trav(U)", "U"},
	{"r_trav(U)", "U"},
	{"rr_trav(%d, U)", "U"},
	{"rs_trav(%d, bi, U) (+) [s_trav(V) (.) s_trav(W)]", "UVW"},
	{"s_trav(V) (.) r_trav(H) (+) s_trav(U) (.) r_acc(%d, H) (.) s_trav(W)", "UVWH"},
	{"s_trav(U) (.) s_trav(V) (.) s_trav(W)", "UVW"},
}

var widths = []int64{8, 16, 32, 64}

// newPool draws n distinct patterns. Region sizes embed the pattern's
// index, so no two patterns (of either client) share a canonical form.
func (g *hotGen) newPool(n int) {
	g.pool = make([]evalPattern, n)
	g.next = make([]int, n)
	for i := range g.pool {
		t := patternTemplates[g.rng.IntN(len(patternTemplates))]
		uid := int64(2*i + g.client) // below 4096: pools stay far smaller
		var regions []server.RegionDecl
		for _, name := range t.regions {
			items := int64(1+g.rng.IntN(1000))*4096 + uid
			regions = append(regions, server.RegionDecl{Name: string(name), Items: items, Width: widths[g.rng.IntN(len(widths))]})
		}
		text := t.text
		if strings.Contains(text, "%d") {
			text = fmt.Sprintf(text, 2+g.rng.IntN(30))
		}
		g.pool[i] = evalPattern{text: text, regions: regions}
		g.cachedPairs = append(g.cachedPairs, [2]int{i, 0})
		g.next[i] = 1
	}
}

func (g *hotGen) eval(pat, prof int, cached bool) Op {
	p := g.pool[pat]
	req := &server.EvalRequest{Profile: evalProfiles[prof], Regions: p.regions, Pattern: p.text,
		CPUNS: float64(g.rng.IntN(1_000_000))}
	return Op{Client: g.client, Eval: req, Cached: []bool{cached},
		TotalNS: []float64{g.env.memoryNS(req) + req.CPUNS}}
}

// repeat re-sends an evaluation whose result is cached.
func (g *hotGen) repeat() Op {
	pair := g.cachedPairs[g.rng.IntN(len(g.cachedPairs))]
	return g.eval(pair[0], pair[1], true)
}

// fresh sends the first evaluation of a pattern on another profile.
func (g *hotGen) fresh() Op {
	for g.next[g.freshNext] == len(evalProfiles) {
		g.freshNext++
	}
	pat := g.freshNext
	prof := g.next[pat]
	g.next[pat]++
	op := g.eval(pat, prof, false)
	g.cachedPairs = append(g.cachedPairs, [2]int{pat, prof})
	return op
}

// batch sends 2–6 cached evaluations; every other batch repeats one of
// its own requests (with another CPU estimate), which the server's
// in-batch dedup answers.
func (g *hotGen) batch() Op {
	size := 2 + g.rng.IntN(5)
	op := Op{Client: g.client, Batch: &server.BatchRequest{}}
	for i := 0; i < size; i++ {
		var req server.EvalRequest
		if i == size-1 && g.rng.IntN(2) == 0 {
			req = op.Batch.Requests[g.rng.IntN(len(op.Batch.Requests))]
			req.CPUNS = float64(g.rng.IntN(1_000_000))
		} else {
			req = *g.repeat().Eval
		}
		op.Batch.Requests = append(op.Batch.Requests, req)
		op.Cached = append(op.Cached, true)
		op.TotalNS = append(op.TotalNS, g.env.memoryNS(&req)+req.CPUNS)
	}
	return op
}

// plan sends the k-th plan request of the client: hot shapes in turn,
// each round of them spelled by catalog name or (inlineRounds rounds in
// ten) inline with the relations renamed and reordered.
func (g *hotGen) plan(k int) Op {
	name := hotShapes[k%len(hotShapes)]
	op := Op{Client: g.client, Served: server.PlanServedCache, Shape: name, Want: g.env.golden[name]}
	if (k/len(hotShapes))%10 >= inlineRounds {
		op.Plan = &server.PlanRequest{Profile: planProfile, Scenario: name}
		return op
	}
	sc, _ := scenario.ByName(name)
	pq, rename := inlineQuery(sc.Query, g.rng.Perm(len(sc.Query.Relations)), nil)
	op.Plan = &server.PlanRequest{Profile: planProfile, Query: pq}
	want := *op.Want
	want.Plan = renameSignature(want.Plan, rename)
	op.Want = &want
	return op
}

// inlineQuery spells q inline. A non-nil perm reorders and renames the
// relations (returning the rename map); drift, when non-nil, scales
// each relation's cardinality by its factor.
func inlineQuery(q scenario.Query, perm []int, drift []float64) (*server.PlanQuery, map[string]string) {
	var rename map[string]string
	if perm != nil {
		rename = map[string]string{}
	} else {
		perm = make([]int, len(q.Relations))
		for i := range perm {
			perm[i] = i
		}
	}
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	pq := &server.PlanQuery{GroupBy: q.GroupBy, Distinct: q.Distinct, SortBy: q.SortBy}
	if q.Filters != nil {
		pq.Filters = make([]float64, len(q.Filters))
	}
	if q.Projections != nil {
		pq.Projections = make([]int64, len(q.Projections))
	}
	for newIdx, oldIdx := range perm {
		rel := q.Relations[oldIdx]
		name, tuples := rel.Name, rel.Tuples
		if rename != nil {
			name = fmt.Sprintf("t%d_%s", newIdx, rel.Name)
			rename[rel.Name] = name
		}
		if drift != nil {
			tuples = max(1, int64(math.Round(float64(tuples)*drift[oldIdx])))
		}
		pq.Relations = append(pq.Relations, server.PlanRelation{Name: name, Tuples: tuples, Width: rel.Width, Sorted: rel.Sorted})
		if q.Filters != nil {
			pq.Filters[newIdx] = q.Filters[oldIdx]
		}
		if q.Projections != nil {
			pq.Projections[newIdx] = q.Projections[oldIdx]
		}
	}
	for _, j := range q.Joins {
		pq.Joins = append(pq.Joins, server.PlanJoin{Left: inv[j.Left], Right: inv[j.Right], Selectivity: j.Selectivity})
	}
	return pq, rename
}

// queryFromWire is the scenario.Query an inline plan request describes
// (the server's own conversion is unexported).
func queryFromWire(pq *server.PlanQuery) scenario.Query {
	q := scenario.Query{Filters: pq.Filters, Projections: pq.Projections,
		GroupBy: pq.GroupBy, Distinct: pq.Distinct, SortBy: pq.SortBy}
	for _, r := range pq.Relations {
		q.Relations = append(q.Relations, scenario.Relation{Name: r.Name, Tuples: r.Tuples, Width: r.Width, Sorted: r.Sorted})
	}
	for _, j := range pq.Joins {
		q.Joins = append(q.Joins, scenario.JoinEdge{Left: j.Left, Right: j.Right, Selectivity: j.Selectivity})
	}
	return q
}

// requestQuery resolves a plan request to its logical query.
func requestQuery(req *server.PlanRequest) scenario.Query {
	if req.Query != nil {
		return queryFromWire(req.Query)
	}
	sc, _ := scenario.ByName(req.Scenario)
	return sc.Query
}

var identifier = regexp.MustCompile(`[A-Za-z0-9_]+`)

// renameSignature rewrites the relation names of a plan signature.
// Relation names are upper-case and algorithm codes lower-case, so
// whole identifiers never collide.
func renameSignature(sig string, rename map[string]string) string {
	return identifier.ReplaceAllStringFunc(sig, func(tok string) string {
		if to, ok := rename[tok]; ok {
			return to
		}
		return tok
	})
}

// exactMix splits n into counts with the given shares, largest
// remainders first, so the counts always sum to n.
func exactMix(n int, shares []float64) []int {
	counts := make([]int, len(shares))
	total := 0
	for i, s := range shares {
		counts[i] = int(float64(n) * s)
		total += counts[i]
	}
	for i := 0; total < n; i = (i + 1) % len(counts) {
		counts[i]++
		total++
	}
	return counts
}

// shuffledKinds lists kind k counts[k] times, in seeded random order.
func shuffledKinds(rng *rand.Rand, counts []int) []int {
	var seq []int
	for k, c := range counts {
		for i := 0; i < c; i++ {
			seq = append(seq, k)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// repriceOwners are the large-relation catalog shapes plan-reprice
// drifts; set-up searches each from its catalog spelling.
var repriceOwners = []string{
	"join2-fk", "join3-star", "join3-chain-q3", "join6-islands", "join7-star",
	"join10-star", "groupby-many", "sort-unsorted", "distinct-dense",
}

// repriceGuests are catalog scenarios whose shape another scenario owns:
// join2-fk owns join2-large's and distinct-dense owns distinct-sparse's.
var repriceGuests = map[string]string{"join2-large": "join2-fk", "distinct-sparse": "distinct-dense"}

// knownDivergences pins the catalog-spelled plan-reprice answers that
// revalidation serves differently from the golden corpus. join2-large
// is served from join2-fk's cache entry, whose recipes hold no 64-way
// partitioned join, so re-scoring them cannot find the golden winner.
// Such a request must be answered with either the golden answer or
// exactly the pinned one; any other answer fails.
var knownDivergences = map[string]struct{ served, golden Answer }{
	"join2-large": {
		served: Answer{Plan: "(V hj U)", TotalNS: 923413438.43318558, Plans: 4},
		golden: Answer{Plan: "(U phj64 V)", TotalNS: 755887662.60460949, Plans: 5},
	},
}

// driftsPerShape is how many distinct ±2% drifts of each owner the
// measured list cycles through.
const driftsPerShape = 2

// maxDriftDraws bounds the drifts drawn per shape while looking for
// ones that keep the cached winner.
const maxDriftDraws = 40

// dethroneShape is the owner whose run includes one drift that
// dethrones the cached winner. Its re-search takes about 0.4 s; a
// join10-star one took 65 s, which no run can absorb.
const dethroneShape = "join3-star"

// genPlanReprice builds plan-reprice's single-client list. Set-up
// searches every owner shape; the measured list then re-sends each
// owner with its cardinalities drifted by up to ±2% (inline spelling),
// and join2-large and distinct-sparse by catalog name. The server
// answers all of them by re-binding and re-scoring the owner's five
// best cached recipes. A drift under which the cached winner loses
// makes the server re-search the query, pricing cardinalities the step
// cache has never seen; such drifts are not sent, except the first one
// drawn for dethroneShape, which follows that shape's last revalidation
// so that its re-anchored entry serves no later request.
func genPlanReprice(rng *rand.Rand, n int, e *env, emit func(Op)) (warm []Op, err error) {
	for _, name := range repriceOwners {
		warm = append(warm, Op{Plan: &server.PlanRequest{Profile: planProfile, Scenario: name},
			Served: server.PlanServedSearch, Shape: name, Want: e.golden[name]})
	}
	type class struct{ reqs []Op }
	var classes []class
	var dethrone *Op
	for _, name := range repriceOwners {
		sc, _ := scenario.ByName(name)
		var c class
		for draws := 0; len(c.reqs) < driftsPerShape || (name == dethroneShape && dethrone == nil); draws++ {
			if draws == maxDriftDraws {
				if len(c.reqs) < driftsPerShape {
					return nil, fmt.Errorf("%s: no ±2%% drift kept the cached winner in %d draws", name, maxDriftDraws)
				}
				break // no drift dethrones the winner: the list has no re-search
			}
			drift := make([]float64, len(sc.Query.Relations))
			for i := range drift {
				drift[i] = 0.98 + 0.04*rng.Float64()
			}
			pq, _ := inlineQuery(sc.Query, nil, drift)
			want, keeps, err := e.rescore(name, queryFromWire(pq))
			if err != nil {
				return nil, err
			}
			switch {
			case !keeps && name == dethroneShape && dethrone == nil:
				// Checked for form only: a reference search would warm
				// the step cache the server's re-search is meant to
				// find cold.
				dethrone = &Op{Plan: &server.PlanRequest{Profile: planProfile, Query: pq},
					Served: server.PlanServedSearch, Shape: name}
			case !keeps:
				e.droppedDrifts++
			case len(c.reqs) < driftsPerShape:
				c.reqs = append(c.reqs, Op{Plan: &server.PlanRequest{Profile: planProfile, Query: pq},
					Served: server.PlanServedRevalidated, Shape: name, Want: want})
			}
		}
		classes = append(classes, c)
	}
	for _, guest := range []string{"join2-large", "distinct-sparse"} {
		op := Op{Plan: &server.PlanRequest{Profile: planProfile, Scenario: guest},
			Served: server.PlanServedRevalidated, Shape: repriceGuests[guest], Want: e.golden[guest]}
		if d, ok := knownDivergences[guest]; ok {
			if *e.golden[guest] != d.golden {
				return nil, fmt.Errorf("%s: the golden corpus no longer holds the answer its known divergence was pinned against", guest)
			}
			op.Want, op.Golden = &d.served, e.golden[guest]
		}
		classes = append(classes, class{reqs: []Op{op}})
	}
	// Equal shares are a choice, not a measurement: no recorded traffic
	// says which shapes drift how often, so every owner's re-score
	// weighs the same in the per-operation figures.
	shares := make([]float64, len(classes))
	for i := range shares {
		shares[i] = 1 / float64(len(classes))
	}
	var ops []Op
	seen := make([]int, len(classes))
	last := -1
	for _, k := range shuffledKinds(rng, exactMix(n, shares)) {
		c := classes[k]
		ops = append(ops, c.reqs[seen[k]%len(c.reqs)])
		seen[k]++
		if ops[len(ops)-1].Shape == dethroneShape {
			last = len(ops) - 1
		}
	}
	if dethrone != nil {
		ops = append(ops[:last+1], append([]Op{*dethrone}, ops[last+1:]...)...)
	}
	for _, op := range ops {
		emit(op)
	}
	return warm, nil
}

// searchShapes are plan-search's DP-heavy catalog shapes and their
// shares of the list. The shares put the median inside join8-chain's
// latency mode rather than on a boundary between two modes.
var searchShapes = []struct {
	name  string
	share float64
}{
	{"join4-chain", 0.2}, {"join5-cycle", 0.2}, {"join8-chain", 0.4}, {"join12-chain", 0.2},
}

// genPlanSearch builds plan-search's single-client list against a
// server without a plan cache: every request is a full DP search.
// Set-up searches each shape once, which fills the process-wide step
// cache.
func genPlanSearch(rng *rand.Rand, n int, e *env, emit func(Op)) (warm []Op, err error) {
	shares := make([]float64, len(searchShapes))
	for i, s := range searchShapes {
		warm = append(warm, searchOp(s.name, e))
		shares[i] = s.share
	}
	for _, k := range shuffledKinds(rng, exactMix(n, shares)) {
		emit(searchOp(searchShapes[k].name, e))
	}
	return warm, nil
}

func searchOp(name string, e *env) Op {
	return Op{Plan: &server.PlanRequest{Profile: planProfile, Scenario: name},
		Served: server.PlanServedSearch, Shape: name, Want: e.golden[name]}
}

// validateWarmGrids are the grids set-up runs before timing.
const validateWarmGrids = 20

// genValidate builds validate-sweep's list: n full analytical grids.
// The grid has no seeded inputs.
func genValidate(n int, emit func(Op)) (warm []Op) {
	for i := 0; i < validateWarmGrids; i++ {
		warm = append(warm, Op{Validate: true})
	}
	for i := 0; i < n; i++ {
		emit(Op{Validate: true})
	}
	return warm
}
