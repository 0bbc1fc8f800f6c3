// Package validate checks the cost model against a reference
// measurement: it sweeps every operator pattern of the engine (scan,
// sort, merge- and hash-join, partitioning, multi-pass radix
// partitioning, B-tree lookup batches, aggregation) across data sizes,
// measures each grid point with the selected backend, and reports the
// relative error between the model's predicted memory time (Eq. 3.1)
// and the latency-scored measurement — the paper's Section 6 validation
// methodology, condensed into one number per operator.
//
// Two backends produce the measured side. BackendTrace (the default)
// runs the operator in simulated memory with the cache simulator
// counting misses — the slow oracle that observes real engine code.
// BackendAnalytical prices the operator's declared pattern with the
// stack-distance model in internal/cachemodel; no trace is generated,
// which makes the full grid ~two orders of magnitude faster and cheap
// enough to run on every CI push. Options.CrossCheck runs both and
// attaches their per-operator disagreement, gated against committed
// tolerances (see docs/validation.md).
//
// Because both sides price misses with the same per-level latencies, the
// relative error isolates miss-count accuracy: it answers "how well do
// Eqs. 4.2–4.9 and the Section 5 combination rules predict this
// hierarchy" for every operator at once. Use it after calibrating a new
// machine (package repro/pkg/costmodel/calibrate) to see whether the
// discovered profile is trustworthy before optimizing against it.
//
//	rep, err := validate.Run(ctx, validate.Options{Profile: "origin2000", Quick: true})
//	fmt.Printf("mean relative error: %.3f\n", rep.MeanRelError)
//
// The same harness backs `costmodel validate` (whose -json flag writes
// the BENCH_validate.json trajectory file) and the server's
// GET /v1/validate endpoint.
package validate

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/experiments"
	"repro/pkg/costmodel"
)

// ErrInvalidOptions marks caller mistakes in Options (unknown profile
// or operator, undersized sweep, invalid hierarchy), as opposed to
// internal sweep failures; test with errors.Is.
var ErrInvalidOptions = experiments.ErrInvalidConfig

// Options configures a validation sweep.
type Options struct {
	// Profile names the registered hardware profile to validate
	// (default "origin2000"). Ignored when Hierarchy is set.
	Profile string
	// Hierarchy validates an explicit hierarchy instead of a registered
	// profile.
	Hierarchy *costmodel.Hierarchy
	// Registry resolves Profile; nil means the package default.
	Registry *costmodel.Registry
	// Operators selects operators by name (default Operators()).
	Operators []string
	// Sizes are the swept relation sizes in bytes (default
	// 128 kB / 512 kB / 2 MB; Quick shrinks to 32 kB / 128 kB).
	Sizes []int64
	// Quick selects the small size set for smoke runs.
	Quick bool
	// Workers bounds concurrently simulated grid points; 0 means
	// GOMAXPROCS.
	Workers int
	// Seed drives workload generation (default 42).
	Seed uint64
	// Backend selects the measurement backend: BackendTrace replays
	// operators through the cache simulator (slow oracle, default);
	// BackendAnalytical prices the declared patterns with the
	// stack-distance model (~two orders of magnitude faster).
	Backend Backend
	// CrossCheck runs both backends on the same grid and attaches the
	// per-operator disagreement and wall-clock speedup to the report
	// (Report.CrossCheck). The reported points are the analytical
	// backend's; Backend is ignored.
	CrossCheck bool
}

// Backend selects how the measured side of the sweep is produced.
type Backend = experiments.Backend

// The supported backends.
const (
	BackendTrace      = experiments.BackendTrace
	BackendAnalytical = experiments.BackendAnalytical
)

// Backends lists the supported validation backends.
func Backends() []Backend { return experiments.Backends() }

// Report is a full validation report; it marshals to the
// BENCH_validate.json schema (see docs/validation.md).
type Report = experiments.Validation

// OperatorReport aggregates one operator's sweep.
type OperatorReport = experiments.OperatorValidation

// Point is one (operator, size) measurement.
type Point = experiments.ValidationPoint

// Operators lists the names of all validated operators.
func Operators() []string { return experiments.ValidationOperators() }

// DefaultWorkers returns the worker-pool size used when Options.Workers
// is 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run executes the validation sweep described by opts. Grid points run
// concurrently on a bounded worker pool; the context cancels the sweep
// between points.
func Run(ctx context.Context, opts Options) (*Report, error) {
	hier := opts.Hierarchy
	if hier == nil {
		reg := opts.Registry
		if reg == nil {
			reg = costmodel.DefaultRegistry()
		}
		name := opts.Profile
		if name == "" {
			name = "origin2000"
		}
		h, err := reg.Profile(name)
		if err != nil {
			return nil, fmt.Errorf("validate: %w: %v", ErrInvalidOptions, err)
		}
		hier = h
	}
	vcfg := experiments.ValidationConfig{
		Hier:      hier,
		Sizes:     opts.Sizes,
		Operators: opts.Operators,
		Quick:     opts.Quick,
		Seed:      opts.Seed,
		Workers:   opts.Workers,
		Backend:   opts.Backend,
	}
	if opts.CrossCheck {
		return experiments.RunCrossCheck(ctx, vcfg)
	}
	return experiments.RunValidation(ctx, vcfg)
}
