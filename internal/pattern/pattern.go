// Package pattern implements the paper's second abstraction: data access
// patterns. The access behaviour of a database algorithm is described as
// a combination of a few basic patterns over data regions:
//
//	s_trav(R[,u])        single sequential traversal
//	rs_trav(r,d,R[,u])   repetitive sequential traversal (uni/bi-directional)
//	r_trav(R[,u])        single random traversal
//	rr_trav(r,R[,u])     repetitive random traversal
//	r_acc(r,R[,u])       r independent random accesses
//	nest(R,m,P,o)        interleaved multi-cursor access over m sub-regions
//
// Compound patterns combine these with ⊕ (sequential execution, Seq) and
// ⊙ (concurrent execution, Conc). ⊙ binds tighter than ⊕ and is
// commutative; ⊕ is not.
//
// The paper distinguishes two variants of the sequential traversals:
// s_trav° (the implementation can exploit sequential/EDO latency) and
// s_trav~ (it cannot, e.g. because of data dependencies); both produce
// the same number of misses but the former's misses are scored with
// sequential latency and the latter's with random latency. The NoSeq
// field selects the ~ variant.
package pattern

import (
	"fmt"
	"strings"

	"repro/internal/region"
)

// Pattern is a (basic or compound) data access pattern.
type Pattern interface {
	fmt.Stringer
	// Regions returns every region the pattern touches, in order of first
	// appearance.
	Regions() []*region.Region
	isPattern()
}

// Direction selects the sweep direction of repetitive sequential
// traversals.
type Direction int

const (
	// Uni means every traversal sweeps in the same direction.
	Uni Direction = iota
	// Bi means subsequent traversals alternate direction.
	Bi
)

// String returns "uni" or "bi".
func (d Direction) String() string {
	if d == Uni {
		return "uni"
	}
	return "bi"
}

// Order selects how the global cursor of a nest pattern picks local
// cursors.
type Order int

const (
	// OrderRandom picks sub-regions randomly (the paper's o = rnd).
	OrderRandom Order = iota
	// OrderUni sweeps across sub-regions in a fixed direction.
	OrderUni
	// OrderBi sweeps across sub-regions in alternating directions.
	OrderBi
)

// String returns "rnd", "uni" or "bi".
func (o Order) String() string {
	switch o {
	case OrderRandom:
		return "rnd"
	case OrderUni:
		return "uni"
	default:
		return "bi"
	}
}

// STrav is a single sequential traversal s_trav(R[,u]): each item of R is
// accessed exactly once, in storage order, touching u bytes per item.
type STrav struct {
	R *region.Region
	// U is the number of bytes used per item; 0 means R.W (all bytes).
	U int64
	// NoSeq selects the s_trav~ variant (misses scored at random latency).
	NoSeq bool
}

// RSTrav is a repetitive sequential traversal rs_trav(r, d, R[,u]):
// r sequential traversals after another, uni- or bi-directional.
type RSTrav struct {
	R       *region.Region
	U       int64
	Repeats int64
	Dir     Direction
	NoSeq   bool
}

// RTrav is a single random traversal r_trav(R[,u]): each item accessed
// exactly once, in random order.
type RTrav struct {
	R *region.Region
	U int64
}

// RRTrav is a repetitive random traversal rr_trav(r, R[,u]): r random
// traversals with independent permutations.
type RRTrav struct {
	R       *region.Region
	U       int64
	Repeats int64
}

// RAcc is random access r_acc(r, R[,u]): r independently chosen items are
// hit, possibly repeatedly; not every item need be touched.
type RAcc struct {
	R     *region.Region
	U     int64
	Count int64
}

// InnerKind selects the local-cursor pattern of a nest.
type InnerKind int

const (
	// InnerSTrav means each local cursor traverses its sub-region
	// sequentially.
	InnerSTrav InnerKind = iota
	// InnerRTrav means each local cursor traverses its sub-region in
	// random order.
	InnerRTrav
	// InnerRAcc means each local cursor performs Count random accesses on
	// its sub-region.
	InnerRAcc
)

// String returns the pattern-language name of the inner kind.
func (k InnerKind) String() string {
	switch k {
	case InnerSTrav:
		return "s_trav"
	case InnerRTrav:
		return "r_trav"
	default:
		return "r_acc"
	}
}

// Nest is the interleaved multi-cursor access nest(R, m, P(R_j), o): R is
// divided into m equal sub-regions, each with a local cursor performing
// the same basic pattern; a global cursor picks local cursors in order o.
type Nest struct {
	R *region.Region
	// M is the number of sub-regions (and local cursors).
	M int64
	// Inner is the basic pattern every local cursor performs.
	Inner InnerKind
	// U is the bytes-used parameter of the inner pattern; 0 means R.W.
	U int64
	// Count is the per-cursor access count when Inner is InnerRAcc.
	Count int64
	// Order is how the global cursor picks local cursors.
	Order Order
	// NoSeq selects the s_trav~ variant for an InnerSTrav inner pattern.
	NoSeq bool
}

// Seq is the sequential-execution combination P_1 ⊕ P_2 ⊕ ... : the
// patterns execute one after another and may reuse each other's cache
// leftovers.
type Seq []Pattern

// Conc is the concurrent-execution combination P_1 ⊙ P_2 ⊙ ... : the
// patterns execute interleaved and compete for the cache.
type Conc []Pattern

func (STrav) isPattern()  {}
func (RSTrav) isPattern() {}
func (RTrav) isPattern()  {}
func (RRTrav) isPattern() {}
func (RAcc) isPattern()   {}
func (Nest) isPattern()   {}
func (Seq) isPattern()    {}
func (Conc) isPattern()   {}

// Used returns the effective bytes-used value: u if set, else the full
// item width.
func Used(u int64, r *region.Region) int64 {
	if u <= 0 || u > r.W {
		return r.W
	}
	return u
}

func fmtU(u int64, r *region.Region) string {
	if u <= 0 || u >= r.W {
		return ""
	}
	return fmt.Sprintf(", u=%d", u)
}

func variant(noSeq bool) string {
	if noSeq {
		return "~"
	}
	return ""
}

// String renders s_trav(R) / s_trav~(R, u=...).
func (p STrav) String() string {
	return fmt.Sprintf("s_trav%s(%s%s)", variant(p.NoSeq), p.R.Name, fmtU(p.U, p.R))
}

// String renders rs_trav(r, d, R).
func (p RSTrav) String() string {
	return fmt.Sprintf("rs_trav%s(%d, %s, %s%s)", variant(p.NoSeq), p.Repeats, p.Dir, p.R.Name, fmtU(p.U, p.R))
}

// String renders r_trav(R).
func (p RTrav) String() string {
	return fmt.Sprintf("r_trav(%s%s)", p.R.Name, fmtU(p.U, p.R))
}

// String renders rr_trav(r, R).
func (p RRTrav) String() string {
	return fmt.Sprintf("rr_trav(%d, %s%s)", p.Repeats, p.R.Name, fmtU(p.U, p.R))
}

// String renders r_acc(r, R).
func (p RAcc) String() string {
	return fmt.Sprintf("r_acc(%d, %s%s)", p.Count, p.R.Name, fmtU(p.U, p.R))
}

// String renders nest(R, m, inner(R_j), o).
func (p Nest) String() string {
	inner := ""
	switch p.Inner {
	case InnerSTrav:
		inner = fmt.Sprintf("s_trav%s(%s_j%s)", variant(p.NoSeq), p.R.Name, fmtU(p.U, p.R))
	case InnerRTrav:
		inner = fmt.Sprintf("r_trav(%s_j%s)", p.R.Name, fmtU(p.U, p.R))
	case InnerRAcc:
		inner = fmt.Sprintf("r_acc(%d, %s_j%s)", p.Count, p.R.Name, fmtU(p.U, p.R))
	}
	return fmt.Sprintf("nest(%s, %d, %s, %s)", p.R.Name, p.M, inner, p.Order)
}

// String renders P_1 (+) P_2 (+) ... with (+) for ⊕.
func (p Seq) String() string { return join(p, " (+) ") }

// String renders P_1 (.) P_2 (.) ... with (.) for ⊙.
func (p Conc) String() string { return join(p, " (.) ") }

func join(ps []Pattern, sep string) string {
	parts := make([]string, len(ps))
	for i, q := range ps {
		s := q.String()
		// ⊙ has precedence over ⊕, so a nested Seq must be bracketed to
		// round-trip; a nested Conc inside a Seq needs no brackets.
		if _, ok := q.(Seq); ok {
			s = "[" + s + "]"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// Regions returns the single region of a basic pattern.
func (p STrav) Regions() []*region.Region  { return []*region.Region{p.R} }
func (p RSTrav) Regions() []*region.Region { return []*region.Region{p.R} }
func (p RTrav) Regions() []*region.Region  { return []*region.Region{p.R} }
func (p RRTrav) Regions() []*region.Region { return []*region.Region{p.R} }
func (p RAcc) Regions() []*region.Region   { return []*region.Region{p.R} }
func (p Nest) Regions() []*region.Region   { return []*region.Region{p.R} }

// Regions returns the union of constituent regions in first-appearance
// order.
func (p Seq) Regions() []*region.Region { return unionRegions(p) }

// Regions returns the union of constituent regions in first-appearance
// order.
func (p Conc) Regions() []*region.Region { return unionRegions(p) }

func unionRegions(ps []Pattern) []*region.Region {
	seen := make(map[*region.Region]bool)
	var out []*region.Region
	for _, q := range ps {
		for _, r := range q.Regions() {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// Validate checks structural invariants of a pattern tree: non-nil
// regions, positive repeat/count/sub-region parameters, u ≤ R.w, and
// directions, nest orders and inner kinds among their declared
// constants (an undeclared value would render as a declared one and
// share its canonical key while being priced differently).
func Validate(p Pattern) error {
	switch q := p.(type) {
	case STrav:
		return validateBasic(q.R, q.U, 1, 1)
	case RSTrav:
		if q.Dir != Uni && q.Dir != Bi {
			return fmt.Errorf("pattern: rs_trav with unknown direction %d", int(q.Dir))
		}
		return validateBasic(q.R, q.U, q.Repeats, 1)
	case RTrav:
		return validateBasic(q.R, q.U, 1, 1)
	case RRTrav:
		return validateBasic(q.R, q.U, q.Repeats, 1)
	case RAcc:
		return validateBasic(q.R, q.U, 1, q.Count)
	case Nest:
		if err := validateBasic(q.R, q.U, 1, 1); err != nil {
			return err
		}
		if q.M <= 0 {
			return fmt.Errorf("pattern: nest with non-positive sub-region count %d", q.M)
		}
		if q.Order < OrderRandom || q.Order > OrderBi {
			return fmt.Errorf("pattern: nest with unknown order %d", int(q.Order))
		}
		if q.Inner < InnerSTrav || q.Inner > InnerRAcc {
			return fmt.Errorf("pattern: nest with unknown inner pattern %d", int(q.Inner))
		}
		if q.Inner == InnerRAcc && q.Count <= 0 {
			return fmt.Errorf("pattern: nest r_acc inner with non-positive count %d", q.Count)
		}
		return nil
	case Seq:
		if len(q) == 0 {
			return fmt.Errorf("pattern: empty Seq")
		}
		for _, sub := range q {
			if err := Validate(sub); err != nil {
				return err
			}
		}
		return nil
	case Conc:
		if len(q) == 0 {
			return fmt.Errorf("pattern: empty Conc")
		}
		for _, sub := range q {
			if err := Validate(sub); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("pattern: unknown pattern type %T", p)
	}
}

func validateBasic(r *region.Region, u, repeats, count int64) error {
	if r == nil {
		return fmt.Errorf("pattern: nil region")
	}
	if u < 0 || u > r.W {
		return fmt.Errorf("pattern: u=%d outside [0,%d] for region %s", u, r.W, r.Name)
	}
	if repeats <= 0 {
		return fmt.Errorf("pattern: non-positive repeat count %d", repeats)
	}
	if count <= 0 {
		return fmt.Errorf("pattern: non-positive access count %d", count)
	}
	return nil
}
