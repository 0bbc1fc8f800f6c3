package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/costir"
	"repro/internal/experiments"
	"repro/internal/queryplan"
	"repro/internal/sweep"
	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
)

// The traced run times calls into each layer's public functions from
// the benchmark's own code. After every operation's HTTP round trip it
// sends the same request to the rig's in-process twin server (timing
// Server.Plan / Evaluate / EvaluateBatch), then re-enacts the work the
// answer's served path implies with the layers' own entry points:
// fingerprint, recipe bind, DP search, lowering, IR compile and IR
// evaluation for plans; pattern parse, canonicalization and IR
// evaluation for evaluations; sweep preparation and run for grids.

// span is one timed call. Spans stay in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span in the same client's list; -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records one client's spans; each client owns one, so no lock
// is needed.
type tracer struct {
	t0    time.Time
	spans []span
	// instructions counts IR instructions of the programs the re-enacted
	// work evaluates.
	instructions int64
	// serverSearched lists the plan operations during whose round trip
	// the server's search counters moved; servedSearch those answered
	// "search".
	serverSearched, servedSearch []int
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// timed records fn as a span.
func (t *tracer) timed(name string, op, parent int, fn func() error) error {
	i := t.begin(name, op, parent)
	err := fn()
	t.end(i)
	return err
}

// layerSpans names the spans that become per-layer metrics, with the
// metric each one feeds.
var layerSpans = map[string]string{
	"server.plan":           "server.plan_ms",
	"server.evaluate":       "server.evaluate_ms",
	"queryplan.fingerprint": "queryplan.fingerprint_ms",
	"queryplan.bind":        "queryplan.bind_ms",
	"queryplan.search":      "queryplan.search_ms",
	"queryplan.lower":       "queryplan.lower_ms",
	"costir.compile":        "costir.compile_ms",
	"costir.eval":           "costir.eval_ms",
	"pattern.parse":         "pattern.parse_ms",
	"sweep.prepare":         "sweep.prepare_ms",
	"sweep.run":             "sweep.run_ms",
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// traceOp runs one operation in the traced run: the timed HTTP round
// trip (or validation grid), then the in-process twin call and the
// layer re-enactment. Spans carry the operation's list position.
func (r *rig) traceOp(t *tracer, l *opList, op wireOp) outcome {
	id := int(op.index)
	root := t.begin("op", id, -1)
	defer t.end(root)
	if op.kind == kindValidate {
		i := t.begin("experiments.validation", id, root)
		o := r.do(l, op)
		t.end(i)
		if o.err == nil {
			o.err = r.replayValidate(t, id, root)
		}
		return o
	}
	searches := r.searches()
	i := t.begin("http.roundtrip", id, root)
	o := r.do(l, op)
	t.end(i)
	if r.searches() != searches {
		t.serverSearched = append(t.serverSearched, id)
	}
	if o.served == servedIndex(server.PlanServedSearch) {
		t.servedSearch = append(t.servedSearch, id)
	}
	if o.err != nil {
		return o
	}
	typed := &l.typed[op.index]
	switch op.kind {
	case kindPlan:
		var res *server.PlanResponse
		_ = t.timed("server.plan", id, root, func() error { res = r.twin.Plan(*typed.Plan); return nil })
		if servedIndex(res.Served) != o.served {
			o.err = fmt.Errorf("twin served %q, server %q", res.Served, servedPaths[o.served])
			return o
		}
		o.err = r.replayPlan(t, id, root, typed, res.Served)
	case kindEval:
		var res *server.EvalResult
		_ = t.timed("server.evaluate", id, root, func() error { res = r.twin.Evaluate(*typed.Eval); return nil })
		o.err = r.replayEval(t, id, root, []server.EvalRequest{*typed.Eval}, []bool{res.Cached})
	case kindBatch:
		var res []*server.EvalResult
		_ = t.timed("server.evaluate", id, root, func() error { res = r.twin.EvaluateBatch(typed.Batch.Requests); return nil })
		cached := make([]bool, len(res))
		for k, x := range res {
			cached[k] = x.Cached
		}
		o.err = r.replayEval(t, id, root, typed.Batch.Requests, cached)
	}
	return o
}

// pruneBytes is the planner's quick-sort recursion bound: the smallest
// cache capacity of the hierarchy.
func pruneBytes(h *costmodel.Hierarchy) int64 {
	m := h.Levels[0].Capacity
	for _, l := range h.Levels {
		m = min(m, l.Capacity)
	}
	return m
}

// replayPlan re-enacts the layer calls behind a plan answer served on
// the given path.
func (r *rig) replayPlan(t *tracer, id, root int, op *Op, served string) error {
	h := r.env.planHier
	q := requestQuery(op.Plan)
	var fp scenario.Fingerprint
	if err := t.timed("queryplan.fingerprint", id, root, func() (err error) {
		fp, err = scenario.FingerprintQuery(q)
		return err
	}); err != nil {
		return err
	}
	// bind re-binds the owner's n best cached recipes (all when n < 0).
	bind := func(n int) ([]*scenario.Plan, error) {
		m, err := r.env.owner(op.Shape)
		if err != nil {
			return nil, err
		}
		if n < 0 || n > len(m.recipes) {
			n = len(m.recipes)
		}
		trees := make([]*scenario.Plan, n)
		err = t.timed("queryplan.bind", id, root, func() (err error) {
			for i := range trees {
				if trees[i], err = scenario.BindRecipe(m.recipes[i], q, fp); err != nil {
					return err
				}
				_ = trees[i].Signature()
			}
			return nil
		})
		return trees, err
	}
	switch served {
	case server.PlanServedCache:
		if op.Plan.Query != nil { // an inline spelling: renamed relations are re-rendered
			_, err := bind(-1)
			return err
		}
		return nil
	case server.PlanServedRevalidated:
		trees, err := bind(planRescoreTopK)
		if err != nil {
			return err
		}
		return t.price(id, root, h, trees, false)
	case server.PlanServedSearch:
		var trees []*scenario.Plan
		if err := t.timed("queryplan.search", id, root, func() (err error) {
			trees, err = queryplan.Search(q, queryplan.Options{
				CPU: queryplan.DefaultCPU(), PruneBytes: pruneBytes(h),
				Search: scenario.SearchOptions{Strategy: scenario.SearchDP, TopK: scenario.DefaultTopK},
			}, h)
			return err
		}); err != nil {
			return err
		}
		return t.price(id, root, h, trees, true)
	}
	return fmt.Errorf("unknown served path %q", served)
}

// price is phase 2: lower each plan, compile it and evaluate it. After
// a search (dedup set) the server first canonicalizes each lowered plan
// and skips a plan whose canonical form and CPU estimate equal an
// earlier one's, so such a duplicate is neither compiled nor evaluated.
func (t *tracer) price(id, root int, h *costmodel.Hierarchy, trees []*scenario.Plan, dedup bool) error {
	cpu, prune := queryplan.DefaultCPU(), pruneBytes(h)
	seen := map[string]bool{}
	for _, tree := range trees {
		var pat costmodel.Pattern
		var cpuNS float64
		if err := t.timed("queryplan.lower", id, root, func() (err error) {
			pat, cpuNS, err = tree.Lower(cpu, prune)
			return err
		}); err != nil {
			return err
		}
		var prog *costir.Program
		if err := t.timed("costir.compile", id, root, func() (err error) {
			if dedup {
				canon, err := costir.CanonicalKey(pat)
				if err != nil {
					return err
				}
				key := fmt.Sprintf("%s|%.17g", canon, cpuNS)
				if seen[key] {
					return nil
				}
				seen[key] = true
			}
			prog, err = costir.Compile(pat)
			return err
		}); err != nil {
			return err
		}
		if prog == nil {
			continue
		}
		_ = t.timed("costir.eval", id, root, func() error { prog.MemoryTimeNS(h); return nil })
		t.instructions += int64(prog.NumInstructions())
	}
	return nil
}

// replayEval re-enacts evaluation requests: every request is parsed and
// canonicalized; a batch's leaders (first of each canonical form and
// profile) are parsed again by Evaluate; a result the server did not
// have cached is evaluated from its compiled program.
func (r *rig) replayEval(t *tracer, id, root int, reqs []server.EvalRequest, cached []bool) error {
	parse := func(req server.EvalRequest) (p costmodel.Pattern, canon string, err error) {
		regions := make(map[string]*costmodel.Region, len(req.Regions))
		for _, d := range req.Regions {
			regions[d.Name] = costmodel.NewRegion(d.Name, d.Items, d.Width)
		}
		if err = t.timed("pattern.parse", id, root, func() (err error) {
			p, err = costmodel.ParsePattern(req.Pattern, regions)
			return err
		}); err != nil {
			return nil, "", err
		}
		err = t.timed("costir.compile", id, root, func() (err error) {
			canon, err = costmodel.CanonicalPattern(p)
			return err
		})
		return p, canon, err
	}
	leaders := map[string]bool{}
	for k, req := range reqs {
		p, canon, err := parse(req)
		if err != nil {
			return err
		}
		if key := req.Profile + "|" + canon; len(reqs) > 1 && !leaders[key] {
			leaders[key] = true
			if _, _, err := parse(req); err != nil {
				return err
			}
		}
		if cached[k] {
			continue
		}
		prog, err := r.env.compiled(canon, p)
		if err != nil {
			return err
		}
		model := r.env.models[req.Profile]
		_ = t.timed("costir.eval", id, root, func() error { model.EvaluateCompiled(prog); return nil })
		t.instructions += int64(prog.NumInstructions())
	}
	return nil
}

// compiled returns the program of a canonical pattern, compiling it
// (untimed: the server's compile cache already holds it) on first use.
func (e *env) compiled(canon string, p costmodel.Pattern) (*costmodel.CompiledPattern, error) {
	e.programsMu.Lock()
	defer e.programsMu.Unlock()
	if prog, ok := e.programs[canon]; ok {
		return prog, nil
	}
	prog, err := costmodel.Compile(p)
	if err == nil {
		e.programs[canon] = prog
	}
	return prog, err
}

// replayValidate re-enacts the two sweep phases of a validation grid.
func (r *rig) replayValidate(t *tracer, id, root int) error {
	h, err := costmodel.DefaultRegistry().Profile("origin2000")
	if err != nil {
		return err
	}
	var g *sweep.Grid
	if err := t.timed("sweep.prepare", id, root, func() error {
		pts, err := experiments.ValidationSweepPoints(experiments.ValidationConfig{Hier: h})
		if err != nil {
			return err
		}
		g, err = sweep.Prepare(pts)
		return err
	}); err != nil {
		return err
	}
	return t.timed("sweep.run", id, root, func() error {
		sw, err := g.On(h)
		if err != nil {
			return err
		}
		_, err = sw.Run(context.Background(), sweep.Options{Workers: runtime.GOMAXPROCS(0), Predict: true, Price: true})
		return err
	})
}

// layerMetrics folds the traced run's spans into per-operation layer
// times (milliseconds of self time per operation of the workload).
func layerMetrics(tracers []*tracer, ops int) map[string]float64 {
	m := map[string]float64{}
	for _, name := range layerSpans {
		m[name] = 0
	}
	var httpSelf, validation, phases int64
	var instructions int64
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			if name, ok := layerSpans[s.Name]; ok {
				m[name] += float64(self[i]) / 1e6
			}
			d := s.End - s.Start
			switch s.Name {
			case "http.roundtrip":
				httpSelf += d
			case "server.plan", "server.evaluate":
				httpSelf -= d
			case "experiments.validation":
				validation += d
			case "sweep.prepare", "sweep.run":
				phases += d
			}
		}
		instructions += t.instructions
	}
	for name := range m {
		m[name] /= float64(ops)
	}
	m["http.self_ms"] = float64(httpSelf) / 1e6 / float64(ops)
	m["experiments.report_ms"] = float64(max(0, validation-phases)) / 1e6 / float64(ops)
	m["costir.instructions_per_op"] = float64(instructions) / float64(ops)
	return m
}

// writeSpans writes every span, one JSON object per line, to path.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for c, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{c, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
