// Package sweep evaluates a set of access patterns — a parameter grid:
// operator × size, one pattern per cell — on a hardware hierarchy in a
// single prepared pass, instead of re-running the full per-point
// pipeline (validate, flatten, compile, re-derive every per-level
// analysis) for each cell.
//
// The grid machinery splits per-point work into a swept-parameter-
// invariant part, hoisted out of the per-point loop, and a dependent
// part that genuinely differs per point:
//
//   - Prepare compiles each pattern to its flat cost-IR program and
//     flattens it for the analytical backend once; both are profile-
//     independent, so one Grid serves any number of hierarchies.
//   - Grid.On binds a hierarchy; Sweep.Run walks the points, reusing
//     pooled cost-IR evaluator buffers (internal/costir) and per-worker
//     analytical pricers (internal/cachemodel.Pricer) whose scratch
//     buffers and stack-distance scaffolding persist across points.
//     The pricers memoize the pure per-level sub-computations (atom
//     profiles, distance-mass integrals) by the exact values of their
//     inputs, so the exponentially repeated sub-structures of the
//     recursive operator patterns are derived once per distinct
//     geometry instead of once per occurrence.
//
// A memo hit returns the identical float64 a fresh computation would,
// so sweep results are bit-identical to the point-at-a-time loop —
// at every parallelism level: points are sharded dynamically across a
// worker pool, every point's computation is independent of the shard
// assignment, and results land in slots indexed by point, making the
// merge deterministic and order-independent (the same discipline as
// the DP plan search's parallel strata). In steady state (warm
// buffers, warm memos) a Run performs zero heap allocations per point.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cachemodel"
	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/pattern"
)

// Point is one grid cell: a label and the access pattern to cost.
type Point struct {
	// Key labels the point in results (e.g. "sort/2097152").
	Key string
	// Pattern is the access pattern of the cell.
	Pattern pattern.Pattern
}

// gridPoint is one prepared cell.
type gridPoint struct {
	key  string
	prog *costir.Program
	prep *cachemodel.PreparedPattern
}

// Grid holds prepared (compiled + flattened) grid points. It is
// profile-independent and immutable: one Grid serves any number of
// hierarchies and concurrent sweeps.
type Grid struct {
	points []gridPoint
}

// Prepare validates, compiles, and flattens every point once. This is
// the swept-parameter-invariant prefix of the per-point pipeline.
func Prepare(points []Point) (*Grid, error) {
	g := &Grid{points: make([]gridPoint, len(points))}
	for i, pt := range points {
		prog, err := costir.Compile(pt.Pattern)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %q: %w", pt.Key, err)
		}
		prep, err := cachemodel.Prepare(pt.Pattern)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %q: %w", pt.Key, err)
		}
		g.points[i] = gridPoint{key: pt.Key, prog: prog, prep: prep}
	}
	return g, nil
}

// On binds the grid to a hierarchy, returning a reusable Sweep. The
// Sweep owns per-worker pricers whose memos warm up across Runs; it is
// safe for concurrent Runs only through separate Sweeps.
func (g *Grid) On(h *hardware.Hierarchy) (*Sweep, error) {
	ana, err := cachemodel.New(h)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return &Sweep{grid: g, hier: h, ana: ana}, nil
}

// Sweep evaluates one prepared grid on one hierarchy.
type Sweep struct {
	grid    *Grid
	hier    *hardware.Hierarchy
	ana     *cachemodel.Model
	workers []*workerCtx
	results []Result
}

// workerCtx is one worker's private reusable state.
type workerCtx struct {
	pricer *cachemodel.Pricer
	priced cachemodel.Result
}

// Options configures one Run.
type Options struct {
	// Workers bounds the concurrent point evaluations; 0 means
	// GOMAXPROCS, 1 runs the grid inline without goroutines. Results
	// are bit-identical at every parallelism level.
	Workers int
	// Predict computes each point's cost-model T_mem (Eq. 3.1) via the
	// compiled program.
	Predict bool
	// Price computes each point's analytical measured T_mem via the
	// stack-distance backend.
	Price bool
}

// Result is one evaluated grid point.
type Result struct {
	// Key echoes the point's label.
	Key string
	// PredictedNS is the cost model's T_mem (Options.Predict).
	PredictedNS float64
	// MeasuredNS is the analytical backend's latency-scored memory
	// time (Options.Price).
	MeasuredNS float64
}

// worker returns worker w's context, creating it on first use.
func (s *Sweep) worker(w int) *workerCtx {
	for len(s.workers) <= w {
		s.workers = append(s.workers, nil)
	}
	if s.workers[w] == nil {
		s.workers[w] = &workerCtx{pricer: s.ana.NewPricer()}
	}
	return s.workers[w]
}

// Run evaluates every grid point and returns one Result per point, in
// grid order. The returned slice is reused by the next Run on this
// Sweep. The context cancels the sweep between points.
func (s *Sweep) Run(ctx context.Context, opts Options) ([]Result, error) {
	n := len(s.grid.points)
	if cap(s.results) < n {
		s.results = make([]Result, n)
	}
	results := s.results[:n]

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	if workers <= 1 {
		wc := s.worker(0)
		for i := range s.grid.points {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.runPoint(wc, i, opts, results)
		}
		return results, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wc := s.worker(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				s.runPoint(wc, i, opts, results)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runPoint evaluates one grid point into its result slot. Every output
// is a deterministic function of the point and the hierarchy alone —
// worker identity, shard order, and memo state never change a bit.
func (s *Sweep) runPoint(wc *workerCtx, i int, opts Options, results []Result) {
	pt := &s.grid.points[i]
	res := Result{Key: pt.key}
	if opts.Predict {
		res.PredictedNS = pt.prog.MemoryTimeNS(s.hier)
	}
	if opts.Price {
		wc.pricer.PriceInto(pt.prep, &wc.priced)
		res.MeasuredNS = wc.priced.MemoryTimeNS()
	}
	results[i] = res
}
