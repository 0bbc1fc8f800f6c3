package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cachemodel"
	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/sweep"
)

// runPointLoop is the original point-at-a-time validation pipeline, the
// oracle RunValidation's grid sweep is pinned against and the sweep
// benchmark's loop baseline. For every cell it builds the operator's
// declared pattern (analytical backend) or runs the engine (trace
// backend), predicts T_mem with the tree-walking cost model, and prices
// the analytical measurement with cachemodel — re-validating,
// re-compiling and re-analyzing each cell from scratch.
func runPointLoop(vcfg ValidationConfig) (*Validation, error) {
	vcfg, ops, err := vcfg.resolve()
	if err != nil {
		return nil, err
	}
	model, err := cost.New(vcfg.Hier)
	if err != nil {
		return nil, err
	}
	ana, err := cachemodel.New(vcfg.Hier)
	if err != nil {
		return nil, err
	}
	cfg := Config{Hier: vcfg.Hier, Seed: vcfg.Seed}.withDefaults()
	cells := make([]validationCell, 0, len(ops)*len(vcfg.Sizes))
	for _, op := range ops {
		for _, sz := range vcfg.Sizes {
			var c validationCell
			var p pattern.Pattern
			if vcfg.Backend == BackendAnalytical {
				p = op.pat(cfg, sz)
				prep, err := cachemodel.Prepare(p)
				if err != nil {
					return nil, err
				}
				c.meas = ana.NewPricer().Price(prep).MemoryTimeNS()
			} else {
				c.meas, p = op.run(cfg, sz)
			}
			c.pattern = patternLabel(p)
			res, err := model.Evaluate(p)
			if err != nil {
				return nil, err
			}
			c.pred = res.MemoryTimeNS()
			cells = append(cells, c)
		}
	}
	return aggregateValidation(vcfg, ops, cells), nil
}

// TestValidationSweepMatchesPointLoop pins the grid-sweep fast path to
// the original point-at-a-time pipeline, bit for bit, on both
// measurement backends: every per-point measurement and prediction must
// carry the identical float64.
func TestValidationSweepMatchesPointLoop(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(string(backend), func(t *testing.T) {
			cfg := smallValidationConfig()
			cfg.Backend = backend
			swept, err := RunValidation(context.Background(), cfg)
			if err != nil {
				t.Fatalf("sweep path: %v", err)
			}
			looped, err := runPointLoop(cfg)
			if err != nil {
				t.Fatalf("point loop: %v", err)
			}
			if len(swept.Operators) != len(looped.Operators) {
				t.Fatalf("sweep %d operators != loop %d", len(swept.Operators), len(looped.Operators))
			}
			for i, so := range swept.Operators {
				lo := looped.Operators[i]
				if so.Operator != lo.Operator {
					t.Fatalf("operator[%d] %q != %q", i, so.Operator, lo.Operator)
				}
				if so.Pattern != lo.Pattern {
					t.Errorf("%s: pattern label %q != loop %q", so.Operator, so.Pattern, lo.Pattern)
				}
				for j, sp := range so.Points {
					lp := lo.Points[j]
					if math.Float64bits(sp.MeasuredNS) != math.Float64bits(lp.MeasuredNS) {
						t.Errorf("%s at %d bytes: sweep measured %v != loop %v",
							so.Operator, sp.Bytes, sp.MeasuredNS, lp.MeasuredNS)
					}
					if math.Float64bits(sp.PredictedNS) != math.Float64bits(lp.PredictedNS) {
						t.Errorf("%s at %d bytes: sweep predicted %v != loop %v",
							so.Operator, sp.Bytes, sp.PredictedNS, lp.PredictedNS)
					}
					if math.Float64bits(sp.RelError) != math.Float64bits(lp.RelError) {
						t.Errorf("%s at %d bytes: sweep rel error %v != loop %v",
							so.Operator, sp.Bytes, sp.RelError, lp.RelError)
					}
				}
			}
			if err := swept.SameNumbers(looped); err != nil {
				t.Errorf("SameNumbers: %v", err)
			}
		})
	}
}

// TestValidationSweepParallelismInvariant pins the sweep path's results
// across worker counts.
func TestValidationSweepParallelismInvariant(t *testing.T) {
	base := smallValidationConfig()
	base.Backend = BackendAnalytical
	base.Workers = 1
	want, err := RunValidation(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		cfg := base
		cfg.Workers = workers
		got, err := RunValidation(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.SameNumbers(want); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestValidationSweepPoints pins the exported grid builder's shape to
// the grid RunValidation evaluates.
func TestValidationSweepPoints(t *testing.T) {
	cfg := smallValidationConfig()
	pts, err := ValidationSweepPoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := ValidationOperators()
	if want := len(ops) * len(cfg.Sizes); len(pts) != want {
		t.Fatalf("%d points, want %d", len(pts), want)
	}
	for i, op := range ops {
		for j, sz := range cfg.Sizes {
			pt := pts[i*len(cfg.Sizes)+j]
			if want := fmt.Sprintf("%s/%d", op, sz); pt.Key != want {
				t.Errorf("point %d keyed %q, want %q", i*len(cfg.Sizes)+j, pt.Key, want)
			}
			if pt.Pattern == nil {
				t.Errorf("point %q has nil pattern", pt.Key)
			}
		}
	}
	if _, err := ValidationSweepPoints(ValidationConfig{Sizes: []int64{64}}); err == nil {
		t.Error("undersized grid accepted")
	}
	if _, err := ValidationSweepPoints(ValidationConfig{Operators: []string{"nope"}}); err == nil {
		t.Error("unknown operator accepted")
	}
}

// BenchmarkSweepGrid is the grid-sweep headline benchmark: the full
// 8-operator × 3-size analytical validation grid on Origin2000, single
// worker so the comparison isolates the sweep machinery from
// parallelism. Three modes:
//
//   - loop: the original point-at-a-time pipeline (re-validate,
//     re-compile, re-analyze every cell) via the runPointLoop oracle.
//   - sweep: the production sweep path end to end, including grid
//     preparation — what one `costmodel validate` run pays.
//   - sweepwarm: repeated Runs on one prepared grid — the steady state
//     a serving process or calibration search pays per grid, which must
//     allocate nothing (0 allocs/op).
//
// CI parses this benchmark into BENCH_eval.json via cmd/benchjson
// -checksweep; the acceptance bar is sweepwarm ≥5x over loop with 0
// allocs/op (one prepared grid amortizes across the runs that reuse
// it, so the steady state carries the committed contract; the cold
// sweep is recorded alongside for the one-shot CLI cost).
func BenchmarkSweepGrid(b *testing.B) {
	vcfg := ValidationConfig{
		Backend: BackendAnalytical,
		Workers: 1,
	}
	ctx := context.Background()
	run := func(b *testing.B, validate func() (*Validation, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := validate()
			if err != nil {
				b.Fatal(err)
			}
			if len(v.Operators) == 0 {
				b.Fatal("empty validation")
			}
		}
	}
	b.Run("loop", func(b *testing.B) {
		run(b, func() (*Validation, error) { return runPointLoop(vcfg) })
	})
	b.Run("sweep", func(b *testing.B) {
		run(b, func() (*Validation, error) { return RunValidation(ctx, vcfg) })
	})
	b.Run("sweepwarm", func(b *testing.B) {
		pts, err := ValidationSweepPoints(vcfg)
		if err != nil {
			b.Fatal(err)
		}
		grid, err := sweep.Prepare(pts)
		if err != nil {
			b.Fatal(err)
		}
		s, err := grid.On(hardware.Origin2000())
		if err != nil {
			b.Fatal(err)
		}
		opts := sweep.Options{Workers: 1, Predict: true, Price: true}
		if _, err := s.Run(ctx, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Run(ctx, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != len(pts) {
				b.Fatal("short sweep")
			}
		}
	})
}
