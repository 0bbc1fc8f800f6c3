// Package repro's top-level benchmark harness: one benchmark per table
// and figure of the paper (regenerating it at reduced scale — run
// `costmodel experiments` for full-scale output), plus ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// Accuracy-oriented benchmarks attach prediction-error metrics via
// b.ReportMetric (relerr = |predicted − measured| / measured), so
// `go test -bench=.` doubles as a compact accuracy dashboard.
package repro

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/combinatorics"
	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/queryplan"
	"repro/internal/region"
	"repro/internal/vmem"
	"repro/internal/workload"
)

func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, MaxSize: 2 << 20, Seed: 42}
}

// benchExperiment runs one experiment generator per iteration.
func benchExperiment(b *testing.B, id string) {
	gen, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := gen(cfg)
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5a(b *testing.B)  { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchExperiment(b, "fig5b") }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)  { benchExperiment(b, "fig6c") }
func BenchmarkFig6d(b *testing.B)  { benchExperiment(b, "fig6d") }

func BenchmarkFig7Quicksort(b *testing.B)    { benchExperiment(b, "fig7a") }
func BenchmarkFig7MergeJoin(b *testing.B)    { benchExperiment(b, "fig7b") }
func BenchmarkFig7HashJoin(b *testing.B)     { benchExperiment(b, "fig7c") }
func BenchmarkFig7Partition(b *testing.B)    { benchExperiment(b, "fig7d") }
func BenchmarkFig7PartHashJoin(b *testing.B) { benchExperiment(b, "fig7e") }

// BenchmarkCalibrator regenerates Table 3: a full simulated calibration
// run (capacity, line-size and latency sweeps) against the small test
// hierarchy.
func BenchmarkCalibrator(b *testing.B) {
	benchExperiment(b, "table3")
}

// BenchmarkModelEvaluation measures the cost of evaluating the model
// itself — the quantity a query optimizer pays per plan candidate.
func BenchmarkModelEvaluation(b *testing.B) {
	model := cost.MustNew(hardware.Origin2000())
	n := int64(1 << 20)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	h := engine.HashRegionFor("H", n)
	p := engine.HashJoinPattern(u, v, h, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvaluationPartitioned evaluates the heaviest practical
// pattern: a 256-cluster partitioned hash join (513 sub-patterns).
func BenchmarkModelEvaluationPartitioned(b *testing.B) {
	model := cost.MustNew(hardware.Origin2000())
	n := int64(1 << 20)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	p := engine.PartitionedHashJoinPattern(u, v, w, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulated accesses per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	h := hardware.Origin2000()
	mem := vmem.New(16 << 20)
	sim := cachesim.New(h)
	mem.SetObserver(sim)
	base := mem.Alloc(8<<20, 32)
	b.SetBytes(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Touch(base+vmem.Addr((int64(i)*8)%(8<<20)), 8)
	}
}

// BenchmarkDistinctExactVsClosed is the DESIGN.md ablation comparing the
// paper's exact Stirling-number expectation against the closed form the
// production model uses.
func BenchmarkDistinctExactVsClosed(b *testing.B) {
	b.Run("exact-stirling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combinatorics.ExpectedDistinctExact(64, 48)
		}
	})
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combinatorics.ExpectedDistinct(64, 48)
		}
	})
}

// measureConcRun executes a concurrent scan+r_acc workload on the
// simulator and returns the measured L1 misses.
func measureConcRun(p pattern.Pattern, h *hardware.Hierarchy) float64 {
	mem := vmem.New(1 << 24)
	sim := cachesim.New(h)
	line := h.Levels[0].LineSize
	for i, r := range p.Regions() {
		mem.Alloc(int64(i%7+1)*line, 1)
		driver.Materialize(mem, r, line)
	}
	mem.SetObserver(sim)
	driver.Run(mem, workload.NewRNG(3), p)
	return float64(sim.Stats(0).Misses())
}

// BenchmarkAblationCacheDivision compares the full model (Eq. 5.3 cache
// division among concurrent patterns) against a naive variant that
// evaluates each concurrent pattern with the whole cache to itself. The
// reported relerr metrics show the division step earns its keep.
func BenchmarkAblationCacheDivision(b *testing.B) {
	h := hardware.SmallTest()
	model := cost.MustNew(h)
	// 768 B each: either region fits the 1 kB L1 alone (only the first
	// sweep misses) but together they thrash it — the case where cache
	// division matters.
	a := region.New("A", 96, 8)
	c := region.New("B", 96, 8)
	pa := pattern.RSTrav{R: a, Repeats: 4, Dir: pattern.Uni}
	pb := pattern.RSTrav{R: c, Repeats: 4, Dir: pattern.Uni}
	conc := pattern.Conc{pa, pb}

	measured := measureConcRun(conc, h)
	full, _ := model.Evaluate(conc)
	ra, _ := model.Evaluate(pa)
	rb, _ := model.Evaluate(pb)
	naive := ra.PerLevel[0].Misses.Total() + rb.PerLevel[0].Misses.Total()
	b.ReportMetric(relErr(full.PerLevel[0].Misses.Total(), measured), "relerr-with-division")
	b.ReportMetric(relErr(naive, measured), "relerr-naive")
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(conc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStateCarryover compares the full model (Eq. 5.1/5.2
// cache-state carry-over across sequential execution) against a naive
// variant that evaluates every sub-pattern cold, on a repeated scan of a
// cache-resident region.
func BenchmarkAblationStateCarryover(b *testing.B) {
	h := hardware.SmallTest()
	model := cost.MustNew(h)
	r := region.New("U", 64, 8) // 512 B: fits every level
	p := pattern.Seq{pattern.STrav{R: r}, pattern.STrav{R: r}, pattern.STrav{R: r}}

	measured := measureConcRun(p, h)
	full, _ := model.Evaluate(p)
	single, _ := model.Evaluate(pattern.STrav{R: r})
	naive := 3 * single.PerLevel[0].Misses.Total()
	b.ReportMetric(relErr(full.PerLevel[0].Misses.Total(), measured), "relerr-with-state")
	b.ReportMetric(relErr(naive, measured), "relerr-naive")
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	d := pred - meas
	if d < 0 {
		d = -d
	}
	return d / meas
}

// BenchmarkEngineQuickSort measures the simulated engine itself (not the
// model): in-place quick-sort of a 1 MB relation under full observation.
func BenchmarkEngineQuickSort(b *testing.B) {
	h := hardware.Origin2000()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem := vmem.New(4 << 20)
		sim := cachesim.New(h)
		t := engine.NewTable(mem, "U", 1<<17, 8, 32)
		workload.FillUniform(t, workload.NewRNG(uint64(i)+1))
		mem.SetObserver(sim)
		b.StartTimer()
		engine.QuickSort(t)
	}
}

// BenchmarkEngineHashJoin measures a simulated 1 MB hash join.
func BenchmarkEngineHashJoin(b *testing.B) {
	h := hardware.Origin2000()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem := vmem.New(16 << 20)
		sim := cachesim.New(h)
		u := engine.NewTable(mem, "U", 1<<17, 8, 32)
		v := engine.NewTable(mem, "V", 1<<17, 8, 32)
		w := engine.NewTable(mem, "W", 1<<17, 8, 32)
		rng := workload.NewRNG(uint64(i) + 1)
		workload.FillPermutation(u, rng)
		workload.FillPermutation(v, rng)
		mem.SetObserver(sim)
		b.StartTimer()
		engine.HashJoin(mem, u, v, w)
	}
}

// BenchmarkEvaluate is the cost-IR headline benchmark: the legacy
// recursive tree walker (Model.EvaluateTree, kept as the reference
// oracle) against the compiled flat-IR evaluator
// (costir.Program.Evaluate) on representative compound patterns. The
// CI bench smoke job parses this benchmark's output into
// BENCH_eval.json (see cmd/benchjson); the acceptance bar is 0
// allocs/op and ≥5x throughput for the IR evaluator on the hash-join
// pattern.
func BenchmarkEvaluate(b *testing.B) {
	h := hardware.Origin2000()
	model := cost.MustNew(h)
	n := int64(1 << 20)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	hr := engine.HashRegionFor("H", n)
	patterns := []struct {
		name string
		p    pattern.Pattern
	}{
		{"hashjoin", engine.HashJoinPattern(u, v, hr, w)},
		{"quicksort", engine.QuickSortPattern(u, 32<<10)},
		{"partitioned256", engine.PartitionedHashJoinPattern(u, v, w, 256)},
	}
	for _, tc := range patterns {
		b.Run("tree/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.EvaluateTree(tc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("ir/"+tc.name, func(b *testing.B) {
			prog, err := costir.Compile(tc.p)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]costir.Misses, 0, len(h.Levels))
			prog.Evaluate(h, dst) // warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = prog.Evaluate(h, dst)
			}
		})
	}
}

// BenchmarkPlanSearch is the plan-space-search headline benchmark, all
// modes through queryplan.Rank (i.e. including lowering,
// compilation and the exact phase-2 re-cost). Two modes:
//
//   - dpcold: the DP search with the process-global step-cost cache
//     emptied before every iteration — the first-query-after-boot cost,
//     dominated by cold IR evaluations of partitioned-hash-join
//     geometries.
//   - dp: the DP search warmed up before timing — the steady-state cost
//     a serving process pays per query, which is what the optimizer
//     latency bar (docs/optimizer.md) is stated against.
//
// Every scenario runs as a cold/warm pair, quantifying what geometry
// interning buys. CI parses this benchmark into BENCH_plan.json via
// cmd/benchjson -checkplan.
func BenchmarkPlanSearch(b *testing.B) {
	h := hardware.Origin2000()
	cases := []struct{ mode, scenario string }{
		{"dpcold", "join4-chain"},
		{"dp", "join4-chain"},
		{"dpcold", "join7-star"},
		{"dp", "join7-star"},
		{"dpcold", "join8-chain"},
		{"dp", "join8-chain"},
		{"dpcold", "join10-star"},
		{"dp", "join10-star"},
		{"dpcold", "join12-chain"},
		{"dp", "join12-chain"},
	}
	for _, tc := range cases {
		sc, ok := queryplan.ScenarioByName(tc.scenario)
		if !ok {
			b.Fatalf("unknown scenario %s", tc.scenario)
		}
		search := func(b *testing.B) {
			plans, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(plans) == 0 {
				b.Fatal("no plans")
			}
		}
		b.Run(tc.mode+"/"+tc.scenario, func(b *testing.B) {
			if tc.mode == "dp" {
				search(b) // warm the step cache: steady-state semantics
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.mode == "dpcold" {
					b.StopTimer()
					queryplan.ResetStepCache()
					b.StartTimer()
				}
				search(b)
			}
		})
	}
}

// BenchmarkCompile prices the compile step the IR path adds. A
// process pays it once per distinct compile key, and the key embeds
// every region's size: the planner and the server's compile cache
// reuse a program only for an identical pattern, while plan-cache
// revalidation recompiles every recipe of every drifted request. The
// quick-sort case is the deepest program the planner routinely builds
// (⊕ nested 11 deep).
func BenchmarkCompile(b *testing.B) {
	n := int64(1 << 20)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	hr := engine.HashRegionFor("H", n)
	for _, tc := range []struct {
		name string
		p    pattern.Pattern
	}{
		{"hashjoin", engine.HashJoinPattern(u, v, hr, w)},
		{"quicksort-64MB", engine.QuickSortPattern(region.New("S", 1<<22, 16), 32<<10)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := costir.Compile(tc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rescoreShapes are the large-relation catalog shapes whose drifted
// requests the server answers by re-scoring cached recipes (the
// perfbench plan-reprice workload's owner shapes).
var rescoreShapes = []string{
	"join2-fk", "join3-star", "join3-chain-q3", "join6-islands", "join7-star",
	"join10-star", "groupby-many", "sort-unsorted", "distinct-dense",
}

// BenchmarkRescore is the serving revalidation path without HTTP: each
// iteration re-scores a shape's five cheapest plan trees on modern-x86
// with queryplan.Rescore, which lowers and compiles every tree afresh
// before evaluating it — what a plan-cache hit on a drifted query pays.
func BenchmarkRescore(b *testing.B) {
	h := hardware.ModernX86()
	for _, name := range rescoreShapes {
		sc, ok := queryplan.ScenarioByName(name)
		if !ok {
			b.Fatalf("unknown scenario %s", name)
		}
		b.Run(name, func(b *testing.B) {
			ranked, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			var trees []*queryplan.Plan
			for i := 0; i < len(ranked) && i < 5; i++ {
				trees = append(trees, ranked[i].Tree)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := queryplan.Rescore(h, trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
