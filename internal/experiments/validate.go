package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cachemodel"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// This file implements the predicted-vs-simulated validation harness:
// the paper's Section 6 methodology (run each operator, compare the
// model's prediction with measured memory cost) generalized from the
// five Figure 7 sweeps to a full operator × size grid with quantified
// relative error. It is the machinery behind `costmodel validate` and
// the server's GET /v1/validate.
//
// Two measurement backends produce the "measured" side of each grid
// point:
//
//   - BackendTrace runs the real operator in simulated memory with the
//     trace-driven cache simulator counting misses (internal/cachesim)
//     — the slow oracle, faithful to the exact address trace.
//   - BackendAnalytical prices the operator's declared access pattern
//     with the stack-distance model (internal/cachemodel) — no engine
//     execution, no trace, milliseconds instead of seconds.
//
// Measurement and prediction share the hierarchy's latency figures: both
// backends score miss counts with the same per-level miss latencies the
// model uses (Eq. 3.1), so the relative error isolates miss-count
// accuracy, exactly the comparison the paper's Figure 7 makes with
// hardware counters. RunCrossCheck runs both backends on the same grid
// and bounds their disagreement per operator.

// Backend selects how the "measured" side of a validation point is
// produced.
type Backend string

const (
	// BackendTrace replays the operator through the cache simulator.
	BackendTrace Backend = "trace"
	// BackendAnalytical prices the operator's pattern with the
	// stack-distance model.
	BackendAnalytical Backend = "analytical"
)

// Backends lists the supported validation backends.
func Backends() []Backend { return []Backend{BackendTrace, BackendAnalytical} }

// ValidationConfig controls a validation sweep.
type ValidationConfig struct {
	// Hier is the hardware profile to validate against (default
	// Origin2000).
	Hier *hardware.Hierarchy
	// Sizes are the relation sizes in bytes to sweep (default
	// 128 kB / 512 kB / 2 MB; Quick shrinks to 32 kB / 128 kB). Sizes
	// below MinValidationSize are rejected; the sweep normalizes them
	// to ascending order.
	Sizes []int64
	// Operators selects the operators to validate by name (default all
	// of ValidationOperators).
	Operators []string
	// Quick selects the small default size set for smoke runs.
	Quick bool
	// Seed drives workload generation (default 42).
	Seed uint64
	// Workers bounds the number of concurrently simulated grid points;
	// 0 or negative means GOMAXPROCS. Every grid point owns its private
	// simulated machine, so points are embarrassingly parallel.
	Workers int
	// Backend selects the measurement backend (default BackendTrace).
	Backend Backend
	// PointLoop opts out of the grid-sweep fast path and re-runs the
	// original point-at-a-time pipeline (re-validate, re-compile, and
	// re-analyze every cell from scratch). Results are bit-identical
	// either way — pinned by TestValidationSweepMatchesPointLoop — so
	// this exists for the sweep benchmark's baseline and for debugging.
	PointLoop bool
}

// MinValidationSize is the smallest accepted relation size: below this
// the fixed operator parameters (64 partitions, B-tree fanout 4) would
// degenerate.
const MinValidationSize = 4 << 10

// ErrInvalidConfig marks caller mistakes in a ValidationConfig (unknown
// operator or backend, undersized sweep, invalid hierarchy), as opposed
// to internal sweep failures. Callers exposing the harness over a
// protocol use errors.Is against it to pick a client-error status.
var ErrInvalidConfig = errors.New("invalid validation config")

// withDefaults fills unset fields.
func (c ValidationConfig) withDefaults() ValidationConfig {
	if c.Hier == nil {
		c.Hier = hardware.Origin2000()
	}
	if len(c.Sizes) == 0 {
		if c.Quick {
			c.Sizes = []int64{32 << 10, 128 << 10}
		} else {
			c.Sizes = []int64{128 << 10, 512 << 10, 2 << 20}
		}
	} else {
		// Normalize to ascending order (without mutating the caller's
		// slice): reports and the per-operator pattern label assume it.
		sizes := append([]int64(nil), c.Sizes...)
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		c.Sizes = sizes
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Operators) == 0 {
		c.Operators = ValidationOperators()
	}
	if c.Backend == "" {
		c.Backend = BackendTrace
	}
	return c
}

// ValidationPoint is one (operator, size) cell of the validation grid.
type ValidationPoint struct {
	// Bytes is the input relation size ‖U‖ driving the point.
	Bytes int64 `json:"bytes"`
	// MeasuredNS is the backend's latency-scored memory time.
	MeasuredNS float64 `json:"measured_ns"`
	// PredictedNS is the cost model's T_mem (Eq. 3.1).
	PredictedNS float64 `json:"predicted_ns"`
	// RelError is |predicted − measured| / measured.
	RelError float64 `json:"rel_error"`
	// Floored marks a near-zero measurement (below 1 ns, an all-hit
	// run) whose denominator was floored; such points are excluded from
	// the per-operator means because their relative error is
	// deceptively small.
	Floored bool `json:"floored,omitempty"`
}

// OperatorValidation aggregates one operator's grid column.
type OperatorValidation struct {
	Operator string `json:"operator"`
	// Pattern is the canonical pattern of the largest point (paper
	// Table 2 notation).
	Pattern      string            `json:"pattern"`
	Points       []ValidationPoint `json:"points"`
	MeanRelError float64           `json:"mean_rel_error"`
	MaxRelError  float64           `json:"max_rel_error"`
	// FlooredPoints counts the points whose measurement was floored;
	// they do not contribute to MeanRelError or MaxRelError.
	FlooredPoints int `json:"floored_points,omitempty"`
}

// Validation is a full predicted-vs-simulated validation report.
type Validation struct {
	// Profile is the machine name of the validated hierarchy.
	Profile string `json:"profile"`
	// Backend is the measurement backend that produced MeasuredNS
	// ("trace" or "analytical").
	Backend Backend `json:"backend"`
	Quick   bool    `json:"quick"`
	// Sizes echoes the swept relation sizes in bytes.
	Sizes     []int64              `json:"sizes"`
	Operators []OperatorValidation `json:"operators"`
	// MeanRelError is the mean of the per-operator means.
	MeanRelError float64 `json:"mean_rel_error"`
	// FlooredPoints is the total count of floored grid points.
	FlooredPoints int `json:"floored_points"`
	// WallNS is the wall-clock duration of the sweep. Volatile: ignored
	// by snapshot comparisons.
	WallNS int64 `json:"wall_ns,omitempty"`
	// CrossCheck is present when the sweep was run via RunCrossCheck.
	CrossCheck *CrossCheck `json:"cross_check,omitempty"`
}

// Report renders the validation as an experiments Report for the shared
// text/CSV formatting.
func (v *Validation) Report() *Report {
	r := &Report{
		ID:     "validate",
		Title:  fmt.Sprintf("Predicted vs %s-measured T_mem on %s", v.Backend, v.Profile),
		Header: []string{"operator", "size", "t.meas[ms]", "t.pred[ms]", "rel-err"},
		Notes: []string{
			fmt.Sprintf("mean relative error %.4f over %d operators", v.MeanRelError, len(v.Operators)),
		},
	}
	if v.FlooredPoints > 0 {
		r.Notes = append(r.Notes,
			fmt.Sprintf("%d floored points (measured < 1 ns) excluded from the means", v.FlooredPoints))
	}
	for _, op := range v.Operators {
		for _, pt := range op.Points {
			rel := fmt.Sprintf("%.4f", pt.RelError)
			if pt.Floored {
				rel += " (floored)"
			}
			r.AddRow(op.Operator, fmtBytes(pt.Bytes),
				fmtMS(pt.MeasuredNS), fmtMS(pt.PredictedNS), rel)
		}
		r.AddRow(op.Operator, "mean", "", "", fmt.Sprintf("%.4f", op.MeanRelError))
	}
	return r
}

// opRunner executes one operator at one size inside a private rig and
// returns the measured memory time plus the operator's declared pattern.
type opRunner func(cfg Config, sz int64) (measNS float64, p pattern.Pattern)

// opPattern constructs the operator's declared pattern from geometry
// alone — no engine execution, no simulated memory. The analytical
// backend prices exactly this pattern; TestValidationPatternParity pins
// it to the pattern the trace runner reports.
type opPattern func(cfg Config, sz int64) pattern.Pattern

// validationOp pairs an operator name with its trace runner and its
// pattern-only constructor.
type validationOp struct {
	name string
	run  opRunner
	pat  opPattern
}

// validationOps returns the operator suite, in report order.
func validationOps() []validationOp {
	return []validationOp{
		{"scan", runValScan, patValScan},
		{"sort", runValSort, patValSort},
		{"merge-join", runValMergeJoin, patValMergeJoin},
		{"hash-join", runValHashJoin, patValHashJoin},
		{"partition", runValPartition, patValPartition},
		{"radix", runValRadix, patValRadix},
		{"btree", runValBTree, patValBTree},
		{"aggregate", runValAggregate, patValAggregate},
	}
}

// ValidationOperators lists the names of all validated operators.
func ValidationOperators() []string {
	ops := validationOps()
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.name
	}
	return out
}

func runValScan(cfg Config, sz int64) (float64, pattern.Pattern) {
	n := sz / 8
	rg := newRig(cfg, sz+(1<<20))
	u := rg.table("U", n, 8, workload.FillUniform)
	_, memNS := rg.measure(func() { engine.ScanSum(u, 8) })
	return memNS, engine.ScanPattern(u.Reg, 8)
}

func patValScan(cfg Config, sz int64) pattern.Pattern {
	return engine.ScanPattern(region.New("U", sz/8, 8), 8)
}

func runValSort(cfg Config, sz int64) (float64, pattern.Pattern) {
	n := sz / 8
	rg := newRig(cfg, sz+(1<<20))
	u := rg.table("U", n, 8, workload.FillUniform)
	_, memNS := rg.measure(func() { engine.QuickSort(u) })
	return memNS, engine.QuickSortPattern(u.Reg, cfg.Hier.MinCapacity())
}

func patValSort(cfg Config, sz int64) pattern.Pattern {
	return engine.QuickSortPattern(region.New("U", sz/8, 8), cfg.Hier.MinCapacity())
}

func runValMergeJoin(cfg Config, sz int64) (float64, pattern.Pattern) {
	n := sz / 8
	rg := newRig(cfg, 4*sz+(1<<20))
	u := rg.table("U", n, 8, func(t workload.Keyed, _ *workload.RNG) { workload.FillSorted(t) })
	v := rg.table("V", n, 8, func(t workload.Keyed, _ *workload.RNG) { workload.FillSorted(t) })
	w := rg.table("W", n, 8, nil)
	_, memNS := rg.measure(func() { engine.MergeJoin(u, v, w) })
	return memNS, engine.MergeJoinPattern(u.Reg, v.Reg, w.Reg)
}

func patValMergeJoin(cfg Config, sz int64) pattern.Pattern {
	n := sz / 8
	return engine.MergeJoinPattern(
		region.New("U", n, 8), region.New("V", n, 8), region.New("W", n, 8))
}

func runValHashJoin(cfg Config, sz int64) (float64, pattern.Pattern) {
	n := sz / 8
	rg := newRig(cfg, 12*sz+(1<<20))
	u := rg.table("U", n, 8, workload.FillPermutation)
	v := rg.table("V", n, 8, workload.FillPermutation)
	w := rg.table("W", n, 8, nil)
	_, memNS := rg.measure(func() { engine.HashJoin(rg.mem, u, v, w) })
	hReg := engine.HashRegionFor("H", n)
	return memNS, engine.HashJoinPattern(u.Reg, v.Reg, hReg, w.Reg)
}

func patValHashJoin(cfg Config, sz int64) pattern.Pattern {
	n := sz / 8
	return engine.HashJoinPattern(
		region.New("U", n, 8), region.New("V", n, 8),
		engine.HashRegionFor("H", n), region.New("W", n, 8))
}

func runValPartition(cfg Config, sz int64) (float64, pattern.Pattern) {
	const m = 64
	n := sz / 8
	rg := newRig(cfg, 4*sz+(1<<20))
	u := rg.table("U", n, 8, workload.FillUniform)
	var parts *engine.Partitions
	_, memNS := rg.measure(func() {
		parts = engine.Partition(rg.mem, u, "X", m, engine.HashPartition)
	})
	return memNS, engine.PartitionPattern(u.Reg, parts.Out.Reg, m)
}

func patValPartition(cfg Config, sz int64) pattern.Pattern {
	const m = 64
	n := sz / 8
	return engine.PartitionPattern(region.New("U", n, 8), region.New("X", n, 8), m)
}

func runValRadix(cfg Config, sz int64) (float64, pattern.Pattern) {
	const (
		fanout = 8
		passes = 2
	)
	n := sz / 8
	rg := newRig(cfg, (int64(passes)+2)*sz+(1<<20))
	u := rg.table("U", n, 8, workload.FillUniform)
	_, memNS := rg.measure(func() {
		engine.MultiPassPartition(rg.mem, u, "X", fanout, passes, engine.RadixPartition)
	})
	return memNS, engine.MultiPassPartitionPattern(u.Reg, "X", fanout, passes)
}

func patValRadix(cfg Config, sz int64) pattern.Pattern {
	const (
		fanout = 8
		passes = 2
	)
	return engine.MultiPassPartitionPattern(region.New("U", sz/8, 8), "X", fanout, passes)
}

// btreeLookups returns the lookup-batch size for an n-tuple relation.
func btreeLookups(n int64) int64 {
	k := n / 4
	if k < 1 {
		k = 1
	}
	return k
}

func runValBTree(cfg Config, sz int64) (float64, pattern.Pattern) {
	const fanout = 4
	n := sz / 8
	rg := newRig(cfg, 4*sz+(1<<20))
	u := rg.table("U", n, 8, func(t workload.Keyed, _ *workload.RNG) { workload.FillSorted(t) })
	tree := engine.BulkLoadBTree(rg.mem, "I", u, fanout) // bulk load is unobserved setup
	k := btreeLookups(n)
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = u.RawKey(rg.rng.Intn(n))
	}
	_, memNS := rg.measure(func() {
		for _, key := range keys {
			tree.Lookup(key)
		}
	})
	return memNS, tree.LookupBatchPattern(k)
}

func patValBTree(cfg Config, sz int64) pattern.Pattern {
	const fanout = 4
	n := sz / 8
	return engine.BTreeLookupBatchPattern(engine.BTreeLevelRegions("I", n, fanout), btreeLookups(n))
}

// aggGroups returns the group count for an n-tuple relation.
func aggGroups(n int64) int64 {
	groups := n / 64
	if groups < 16 {
		groups = 16
	}
	return groups
}

func runValAggregate(cfg Config, sz int64) (float64, pattern.Pattern) {
	n := sz / 8
	groups := aggGroups(n)
	rg := newRig(cfg, 3*sz+(1<<20))
	u := rg.table("U", n, 8, workload.FillUniform)
	_, memNS := rg.measure(func() { engine.HashAggregate(rg.mem, u, groups) })
	return memNS, engine.HashAggregatePattern(u.Reg, engine.AggRegionFor(u.Reg.Name+"_agg", groups))
}

func patValAggregate(cfg Config, sz int64) pattern.Pattern {
	n := sz / 8
	return engine.HashAggregatePattern(
		region.New("U", n, 8), engine.AggRegionFor("U_agg", aggGroups(n)))
}

// maxPatternLabel bounds the canonical pattern string recorded per
// operator: the recursive quick-sort pattern renders to tens of
// kilobytes, which would drown the JSON trajectory file.
const maxPatternLabel = 160

func patternLabel(p pattern.Pattern) string {
	s := p.String()
	if len(s) > maxPatternLabel {
		return s[:maxPatternLabel] + " …"
	}
	return s
}

// relError returns |pred − meas| / meas. A measurement below 1 ns (an
// all-hit run) floors the denominator; floored reports that case so the
// aggregation can exclude the point from means instead of letting its
// deceptively small error drag them down.
func relError(meas, pred float64) (rel float64, floored bool) {
	den := meas
	if den < 1 {
		den = 1
		floored = true
	}
	return math.Abs(pred-meas) / den, floored
}

// resolveValidationOps maps operator names to their suite entries,
// preserving the requested order.
func resolveValidationOps(names []string) ([]validationOp, error) {
	byName := make(map[string]validationOp)
	for _, op := range validationOps() {
		byName[op.name] = op
	}
	ops := make([]validationOp, 0, len(names))
	for _, name := range names {
		op, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("experiments: %w: unknown operator %q (have: %v)", ErrInvalidConfig, name, ValidationOperators())
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// buildValidationPoints lays the operator × size grid out as sweep
// points: operators outer, ascending sizes inner, keys "operator/bytes".
func buildValidationPoints(ops []validationOp, cfg Config, sizes []int64) []sweep.Point {
	pts := make([]sweep.Point, 0, len(ops)*len(sizes))
	for _, op := range ops {
		for _, sz := range sizes {
			pts = append(pts, sweep.Point{
				Key:     fmt.Sprintf("%s/%d", op.name, sz),
				Pattern: op.pat(cfg, sz),
			})
		}
	}
	return pts
}

// ValidationSweepPoints builds the exact operator × size grid
// RunValidation evaluates, as sweep points ready for sweep.Prepare
// (keys "operator/bytes"; operators outer, ascending sizes inner). The
// grid-sweep benchmark and external harnesses share it so their
// speedup and allocation contracts measure the production grid.
func ValidationSweepPoints(vcfg ValidationConfig) ([]sweep.Point, error) {
	vcfg = vcfg.withDefaults()
	if err := vcfg.Hier.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w: invalid hierarchy: %v", ErrInvalidConfig, err)
	}
	for _, sz := range vcfg.Sizes {
		if sz < MinValidationSize {
			return nil, fmt.Errorf("experiments: %w: size %d below minimum %d", ErrInvalidConfig, sz, MinValidationSize)
		}
	}
	ops, err := resolveValidationOps(vcfg.Operators)
	if err != nil {
		return nil, err
	}
	cfg := Config{Hier: vcfg.Hier, Seed: vcfg.Seed}.withDefaults()
	return buildValidationPoints(ops, cfg, vcfg.Sizes), nil
}

// RunValidation sweeps the configured operator × size grid, comparing
// the cost model's T_mem prediction against the selected backend's
// measurement for the same pattern, and aggregates relative errors per
// operator (floored points excluded). The grid runs through the
// internal/sweep fast path unless PointLoop opts out: predictions (and
// the analytical backend's measurements) come from one prepared grid
// evaluation; only the trace backend's engine runs still visit a
// per-point worker pool (each point owns a private simulated machine).
// The context cancels the sweep between points.
func RunValidation(ctx context.Context, vcfg ValidationConfig) (*Validation, error) {
	start := time.Now()
	vcfg = vcfg.withDefaults()
	if err := vcfg.Hier.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w: invalid hierarchy: %v", ErrInvalidConfig, err)
	}
	for _, sz := range vcfg.Sizes {
		if sz < MinValidationSize {
			return nil, fmt.Errorf("experiments: %w: size %d below minimum %d", ErrInvalidConfig, sz, MinValidationSize)
		}
	}
	switch vcfg.Backend {
	case BackendTrace, BackendAnalytical:
	default:
		return nil, fmt.Errorf("experiments: %w: unknown backend %q (have: %v)", ErrInvalidConfig, vcfg.Backend, Backends())
	}
	ops, err := resolveValidationOps(vcfg.Operators)
	if err != nil {
		return nil, err
	}

	model, err := cost.New(vcfg.Hier)
	if err != nil {
		return nil, err
	}
	var ana *cachemodel.Model
	if vcfg.Backend == BackendAnalytical {
		if ana, err = cachemodel.New(vcfg.Hier); err != nil {
			return nil, fmt.Errorf("experiments: %w: %v", ErrInvalidConfig, err)
		}
	}
	// Each grid point gets a private Config (private rig, private RNG
	// stream) so concurrent points share nothing.
	cfg := Config{Hier: vcfg.Hier, Seed: vcfg.Seed}.withDefaults()

	type cell struct {
		meas    float64
		pred    float64
		pattern string
		err     error
	}
	grid := make([][]cell, len(ops))
	for i := range grid {
		grid[i] = make([]cell, len(vcfg.Sizes))
	}

	// Sweep fast path: compile and flatten every cell's declared pattern
	// once, then run the whole grid through internal/sweep — predictions
	// for both backends, and the measured side too when it is analytical.
	// The trace backend's measured side still needs a real engine run per
	// point, so only its prediction rides the sweep.
	if !vcfg.PointLoop {
		pts := buildValidationPoints(ops, cfg, vcfg.Sizes)
		sg, err := sweep.Prepare(pts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		sw, err := sg.On(vcfg.Hier)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w: %v", ErrInvalidConfig, err)
		}
		swept, err := sw.Run(ctx, sweep.Options{
			Workers: vcfg.Workers,
			Predict: true,
			Price:   vcfg.Backend == BackendAnalytical,
		})
		if err != nil {
			return nil, err
		}
		for i := range ops {
			for j := range vcfg.Sizes {
				c := &grid[i][j]
				idx := i*len(vcfg.Sizes) + j
				c.pred = swept[idx].PredictedNS
				if vcfg.Backend == BackendAnalytical {
					c.meas = swept[idx].MeasuredNS
					c.pattern = patternLabel(pts[idx].Pattern)
				}
			}
		}
	}

	// Per-point worker pool: the trace backend's engine runs (each point
	// owns a private simulated machine), and the whole grid when the
	// PointLoop opt-out re-runs the original pipeline.
	if vcfg.Backend == BackendTrace || vcfg.PointLoop {
		type job struct{ op, size int }
		jobs := make(chan job)
		var wg sync.WaitGroup
		workers := vcfg.Workers
		if total := len(ops) * len(vcfg.Sizes); workers > total {
			workers = total
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					if ctx.Err() != nil {
						continue // drain remaining jobs without running them
					}
					c := &grid[j.op][j.size]
					func() {
						defer func() {
							if r := recover(); r != nil {
								c.err = fmt.Errorf("experiments: %s at %d bytes: %v",
									ops[j.op].name, vcfg.Sizes[j.size], r)
							}
						}()
						sz := vcfg.Sizes[j.size]
						var measNS float64
						var p pattern.Pattern
						if vcfg.Backend == BackendAnalytical {
							p = ops[j.op].pat(cfg, sz)
							priced, err := ana.Price(p)
							if err != nil {
								c.err = err
								return
							}
							measNS = priced.MemoryTimeNS()
						} else {
							measNS, p = ops[j.op].run(cfg, sz)
						}
						c.meas = measNS
						c.pattern = patternLabel(p)
						if vcfg.PointLoop {
							res, err := model.Evaluate(p)
							if err != nil {
								c.err = err
								return
							}
							c.pred = res.MemoryTimeNS()
						}
					}()
				}
			}()
		}
		for i := range ops {
			for j := range vcfg.Sizes {
				jobs <- job{i, j}
			}
		}
		close(jobs)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	v := &Validation{
		Profile: vcfg.Hier.Name,
		Backend: vcfg.Backend,
		Quick:   vcfg.Quick,
		Sizes:   vcfg.Sizes,
	}
	var sum float64
	var counted int
	for i, op := range ops {
		ov := OperatorValidation{Operator: op.name}
		var opSum float64
		var opCount int
		for j := range vcfg.Sizes {
			c := grid[i][j]
			if c.err != nil {
				return nil, c.err
			}
			rel, floored := relError(c.meas, c.pred)
			pt := ValidationPoint{
				Bytes:       vcfg.Sizes[j],
				MeasuredNS:  c.meas,
				PredictedNS: c.pred,
				RelError:    rel,
				Floored:     floored,
			}
			ov.Points = append(ov.Points, pt)
			ov.Pattern = c.pattern // largest size wins (sizes ascend)
			if pt.Floored {
				ov.FlooredPoints++
				continue
			}
			opSum += pt.RelError
			opCount++
			if pt.RelError > ov.MaxRelError {
				ov.MaxRelError = pt.RelError
			}
		}
		if opCount > 0 {
			ov.MeanRelError = opSum / float64(opCount)
			sum += ov.MeanRelError
			counted++
		}
		v.FlooredPoints += ov.FlooredPoints
		v.Operators = append(v.Operators, ov)
	}
	if counted > 0 {
		v.MeanRelError = sum / float64(counted)
	}
	v.WallNS = time.Since(start).Nanoseconds()
	return v, nil
}

// OperatorCrossCheck bounds one operator's trace-vs-analytical
// disagreement on the latency-scored miss counts.
type OperatorCrossCheck struct {
	Operator string `json:"operator"`
	// MeanDisagreement is the mean over sizes of
	// |analytical − trace| / trace on MeasuredNS.
	MeanDisagreement float64 `json:"mean_disagreement"`
	MaxDisagreement  float64 `json:"max_disagreement"`
	// Tolerance is the committed bound on MeanDisagreement.
	Tolerance float64 `json:"tolerance"`
	Pass      bool    `json:"pass"`
}

// CrossCheck compares the analytical backend against the trace oracle
// on the same grid: per-operator disagreement against the committed
// tolerances, plus the wall-clock speedup the analytical backend buys.
type CrossCheck struct {
	// TraceWallNS and AnalyticalWallNS are the wall-clock sweep
	// durations. Volatile: ignored by snapshot comparisons.
	TraceWallNS      int64 `json:"trace_wall_ns"`
	AnalyticalWallNS int64 `json:"analytical_wall_ns"`
	// Speedup is TraceWallNS / AnalyticalWallNS. Volatile.
	Speedup   float64              `json:"speedup"`
	Operators []OperatorCrossCheck `json:"operators"`
	// Pass reports whether every operator met its tolerance.
	Pass bool `json:"pass"`
}

// CrossCheckTolerances returns the committed per-operator bound on the
// mean trace-vs-analytical disagreement (RunCrossCheck fails operators
// beyond it). The magnitudes mirror the cost model's own fidelity per
// operator: both the model and the analytical backend price the
// declared pattern, so operators whose declared pattern idealizes the
// real trace (sort's pivot-dependent partitions, radix's pass-local
// clustering, hash-join's warm probe phase) carry proportionally wider
// bounds, while trace-faithful patterns (scan, merge-join, partition)
// are tight.
func CrossCheckTolerances() map[string]float64 {
	return map[string]float64{
		"scan":       0.02,
		"sort":       0.90,
		"merge-join": 0.02,
		"hash-join":  0.65,
		"partition":  0.10,
		"radix":      1.00,
		"btree":      0.30,
		"aggregate":  0.30,
	}
}

// RunCrossCheck runs the analytical sweep and the trace sweep on the
// same grid, attaches the per-operator disagreement and wall-clock
// speedup to the analytical report, and returns it. The report's own
// points (MeasuredNS, RelError, ...) are the analytical backend's; the
// trace sweep serves as the oracle. Operators beyond their committed
// tolerance mark the cross-check failed but do not error — callers
// (the CLI's -check flag, benchjson -checkvalidate) decide whether a
// failed cross-check is fatal.
func RunCrossCheck(ctx context.Context, vcfg ValidationConfig) (*Validation, error) {
	vcfg.Backend = BackendAnalytical
	anaRep, err := RunValidation(ctx, vcfg)
	if err != nil {
		return nil, err
	}
	vcfg.Backend = BackendTrace
	traceRep, err := RunValidation(ctx, vcfg)
	if err != nil {
		return nil, err
	}

	cc := &CrossCheck{
		TraceWallNS:      traceRep.WallNS,
		AnalyticalWallNS: anaRep.WallNS,
		Pass:             true,
	}
	if cc.AnalyticalWallNS > 0 {
		cc.Speedup = float64(cc.TraceWallNS) / float64(cc.AnalyticalWallNS)
	}
	tol := CrossCheckTolerances()
	traceOps := make(map[string]OperatorValidation)
	for _, op := range traceRep.Operators {
		traceOps[op.Operator] = op
	}
	for _, anaOp := range anaRep.Operators {
		traceOp, ok := traceOps[anaOp.Operator]
		if !ok {
			continue
		}
		occ := OperatorCrossCheck{Operator: anaOp.Operator, Tolerance: tol[anaOp.Operator]}
		var sum float64
		var count int
		for i, anaPt := range anaOp.Points {
			if i >= len(traceOp.Points) {
				break
			}
			tracePt := traceOp.Points[i]
			d, floored := relError(tracePt.MeasuredNS, anaPt.MeasuredNS)
			if floored {
				continue
			}
			sum += d
			count++
			if d > occ.MaxDisagreement {
				occ.MaxDisagreement = d
			}
		}
		if count > 0 {
			occ.MeanDisagreement = sum / float64(count)
		}
		occ.Pass = occ.MeanDisagreement <= occ.Tolerance
		if !occ.Pass {
			cc.Pass = false
		}
		cc.Operators = append(cc.Operators, occ)
	}
	anaRep.CrossCheck = cc
	return anaRep, nil
}

// SameNumbers compares the deterministic content of two validation
// reports — profile, backend, grid, per-point measurements and
// predictions, per-operator aggregates — ignoring the volatile
// wall-clock fields (WallNS, CrossCheck timings). It is the snapshot
// gate behind `costmodel validate -snapshot`: the committed
// BENCH_validate.json must reproduce bit-for-bit (within floating-point
// formatting) on every CI run, like the query-plan golden corpus.
func (v *Validation) SameNumbers(old *Validation) error {
	const eps = 1e-9
	closeEnough := func(a, b float64) bool {
		diff := math.Abs(a - b)
		scale := math.Max(math.Abs(a), math.Abs(b))
		return diff <= eps || diff <= eps*scale
	}
	if v.Profile != old.Profile {
		return fmt.Errorf("profile %q != snapshot %q", v.Profile, old.Profile)
	}
	if v.Backend != old.Backend {
		return fmt.Errorf("backend %q != snapshot %q", v.Backend, old.Backend)
	}
	if len(v.Sizes) != len(old.Sizes) {
		return fmt.Errorf("%d sizes != snapshot %d", len(v.Sizes), len(old.Sizes))
	}
	for i := range v.Sizes {
		if v.Sizes[i] != old.Sizes[i] {
			return fmt.Errorf("size[%d] %d != snapshot %d", i, v.Sizes[i], old.Sizes[i])
		}
	}
	if len(v.Operators) != len(old.Operators) {
		return fmt.Errorf("%d operators != snapshot %d", len(v.Operators), len(old.Operators))
	}
	for i, op := range v.Operators {
		oldOp := old.Operators[i]
		if op.Operator != oldOp.Operator {
			return fmt.Errorf("operator[%d] %q != snapshot %q", i, op.Operator, oldOp.Operator)
		}
		if op.FlooredPoints != oldOp.FlooredPoints {
			return fmt.Errorf("%s: %d floored points != snapshot %d", op.Operator, op.FlooredPoints, oldOp.FlooredPoints)
		}
		if !closeEnough(op.MeanRelError, oldOp.MeanRelError) {
			return fmt.Errorf("%s: mean rel error %g != snapshot %g", op.Operator, op.MeanRelError, oldOp.MeanRelError)
		}
		if len(op.Points) != len(oldOp.Points) {
			return fmt.Errorf("%s: %d points != snapshot %d", op.Operator, len(op.Points), len(oldOp.Points))
		}
		for j, pt := range op.Points {
			oldPt := oldOp.Points[j]
			if pt.Bytes != oldPt.Bytes {
				return fmt.Errorf("%s[%d]: bytes %d != snapshot %d", op.Operator, j, pt.Bytes, oldPt.Bytes)
			}
			if !closeEnough(pt.MeasuredNS, oldPt.MeasuredNS) {
				return fmt.Errorf("%s at %d bytes: measured %g ns != snapshot %g ns",
					op.Operator, pt.Bytes, pt.MeasuredNS, oldPt.MeasuredNS)
			}
			if !closeEnough(pt.PredictedNS, oldPt.PredictedNS) {
				return fmt.Errorf("%s at %d bytes: predicted %g ns != snapshot %g ns",
					op.Operator, pt.Bytes, pt.PredictedNS, oldPt.PredictedNS)
			}
		}
	}
	return nil
}
