// Package costmodel is the public API of this repository's reproduction
// of "Generic Database Cost Models for Hierarchical Memory Systems"
// (Manegold, Boncz and Kersten, VLDB 2002).
//
// The paper models a database algorithm's memory behaviour in three
// steps, and this package exposes one construct per step:
//
//   - Data regions (NewRegion): a data structure is just R.n items of
//     R.w bytes.
//   - Data access patterns (STrav, RAcc, ..., or ParsePattern for the
//     paper's Table 2 text language): how an algorithm walks its
//     regions, combined sequentially (Seq, ⊕) or concurrently (Conc, ⊙).
//   - A hardware hierarchy (Hierarchy, or a named profile from the
//     Registry): per cache/TLB level, capacity, line size,
//     associativity and miss latencies.
//
// A Model ties the three together: Evaluate predicts sequential and
// random misses per level (Eqs. 4.2–4.9 and the Section 5 combination
// rules), MemoryTimeNS scores them into T_mem (Eq. 3.1), TotalTimeNS
// adds CPU cost (Eq. 6.1), and Explain itemizes the prediction per
// pattern-tree node.
//
// On top of the model, NewPlanner exposes a miniature cost-based
// optimizer (join/aggregate/distinct algorithm choice; package
// repro/pkg/costmodel/scenario ranks whole query plans and carries the
// plan-level catalog), and package repro/pkg/costmodel/server serves
// batched evaluations and plan pricing over HTTP.
// Package repro/pkg/costmodel/calibrate discovers an unknown machine's
// hierarchy and registers it as a profile (the paper's Calibrator,
// Section 7), and repro/pkg/costmodel/validate sweeps every operator
// pattern against reference cache simulation to quantify the model's
// relative error on a given profile.
//
// The package is a facade: it re-exports (via type aliases) the stable
// surface of the repository's internal packages so that external
// callers never need an internal import. Everything reachable from here
// is covered by the repository's compatibility intent; internal/
// packages are not.
package costmodel

import (
	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// Region is a data region R with R.n items of R.w bytes each — the
// paper's first abstraction (a table, a hash structure, a tree, ...).
type Region = region.Region

// NewRegion returns a region with the given name, item count and item
// width in bytes. It panics if n < 0 or w <= 0.
func NewRegion(name string, n, w int64) *Region { return region.New(name, n, w) }

// Pattern is a basic or compound data access pattern (Table 2).
type Pattern = pattern.Pattern

// Basic patterns and their parameter types, re-exported from the
// pattern package. See ParsePattern for the equivalent text syntax.
type (
	// STrav is a single sequential traversal s_trav(R[,u]).
	STrav = pattern.STrav
	// RSTrav is a repetitive sequential traversal rs_trav(r, d, R[,u]).
	RSTrav = pattern.RSTrav
	// RTrav is a single random traversal r_trav(R[,u]).
	RTrav = pattern.RTrav
	// RRTrav is a repetitive random traversal rr_trav(r, R[,u]).
	RRTrav = pattern.RRTrav
	// RAcc is r independent random accesses r_acc(r, R[,u]).
	RAcc = pattern.RAcc
	// Nest is the interleaved multi-cursor access nest(R, m, P, o).
	Nest = pattern.Nest
	// Seq combines patterns executed one after another (the paper's ⊕).
	Seq = pattern.Seq
	// Conc combines patterns executed concurrently (the paper's ⊙).
	Conc = pattern.Conc
	// Direction selects uni- or bi-directional repetitive traversals.
	Direction = pattern.Direction
	// Order selects how a nest's global cursor picks local cursors.
	Order = pattern.Order
	// InnerKind selects the local-cursor pattern of a nest.
	InnerKind = pattern.InnerKind
)

// Direction, Order and InnerKind constants, re-exported.
const (
	Uni         = pattern.Uni
	Bi          = pattern.Bi
	OrderRandom = pattern.OrderRandom
	OrderUni    = pattern.OrderUni
	OrderBi     = pattern.OrderBi
	InnerSTrav  = pattern.InnerSTrav
	InnerRTrav  = pattern.InnerRTrav
	InnerRAcc   = pattern.InnerRAcc
)

// ParsePattern parses a pattern expression in the paper's Table 2 text
// language, resolving region names through regions:
//
//	s_trav(U) (.) r_acc(1000000, H) (.) s_trav(W)
//	rs_trav(10, bi, U) (+) [s_trav(V) (.) s_trav(W)]
//	nest(X, 64, s_trav(X_j), rnd)
//
// (+) is sequential execution ⊕, (.) is concurrent execution ⊙; (.)
// binds tighter, brackets group. The returned pattern is validated.
func ParsePattern(input string, regions map[string]*Region) (Pattern, error) {
	return pattern.Parse(input, regions)
}

// ValidatePattern checks the structural invariants of a pattern tree:
// non-nil regions, positive repeat/count parameters, u ≤ R.w.
func ValidatePattern(p Pattern) error { return pattern.Validate(p) }

// Hardware surface: one Level per cache or TLB, assembled into a
// Hierarchy ordered from the CPU outwards (the paper's Table 1).
type (
	// Level describes one cache or TLB level.
	Level = hardware.Level
	// Hierarchy is a cascading sequence of levels plus the CPU clock.
	Hierarchy = hardware.Hierarchy
	// AccessKind discriminates sequential from random accesses.
	AccessKind = hardware.AccessKind
)

// AccessKind constants, re-exported.
const (
	Sequential = hardware.Sequential
	Random     = hardware.Random
)

// Cost surface: a Model predicts per-level Misses and memory time.
type (
	// Model predicts cache misses and access time on one Hierarchy.
	Model = cost.Model
	// Result is a prediction: misses per hierarchy level.
	Result = cost.Result
	// LevelResult holds one level's predicted misses.
	LevelResult = cost.LevelResult
	// Misses is the per-level pair (sequential, random) of expected misses.
	Misses = cost.Misses
	// Explanation is an itemized per-pattern-node cost breakdown.
	Explanation = cost.Explanation
	// ExplainNode is one pattern-tree node's contribution.
	ExplainNode = cost.ExplainNode
)

// NewModel creates a cost model for the hierarchy; the hierarchy must
// validate.
func NewModel(h *Hierarchy) (*Model, error) { return cost.New(h) }

// MustNewModel is NewModel, panicking on error (for tests and examples).
func MustNewModel(h *Hierarchy) *Model { return cost.MustNew(h) }

// CompiledPattern is a pattern compiled into the flat cost IR: an
// immutable program over a dense table of deduplicated regions, with an
// allocation-free evaluator safe for concurrent use. Compile once,
// evaluate many times — across hardware profiles, goroutines and
// requests:
//
//	prog, err := costmodel.Compile(p)
//	...
//	misses := prog.Evaluate(hier, nil)       // per-level (M^s, M^r)
//	tmem := prog.MemoryTimeNS(hier)          // T_mem, Eq. 3.1
//
// Model.Evaluate compiles internally per call; hot paths (optimizers
// scoring plan candidates, batch services) should hold a
// CompiledPattern instead. CompiledPattern.Canonical returns the
// pattern's canonical form — a deterministic string under which
// cost-equivalent patterns (⊕ associativity, ⊙ commutativity, resolved
// parameters, region identity by name/geometry/parent chain) coincide,
// suitable as a cache key.
type CompiledPattern = costir.Program

// Compile canonicalizes and compiles a pattern into the flat cost IR.
// The pattern must validate (see ValidatePattern).
func Compile(p Pattern) (*CompiledPattern, error) { return costir.Compile(p) }

// CanonicalPattern returns the canonical form of p without compiling
// the full program — the key Compile-result caches should intern on.
func CanonicalPattern(p Pattern) (string, error) { return costir.CanonicalKey(p) }
