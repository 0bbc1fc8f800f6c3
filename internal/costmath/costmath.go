// Package costmath is the arithmetic kernel of the cost model: the
// per-pattern cache-miss formulas of Section 4 of the paper (Eqs. 4.2
// through 4.9), stripped of any tree or state bookkeeping. Every
// function works on one cache level — described by a Level — and plain
// scalar region parameters (item count n, item width w), and returns
// expected miss counts as float64 expectations.
//
// Both evaluators share this package: the recursive tree walker in
// internal/cost (the reference implementation) and the flat-IR
// evaluator in internal/costir (the production fast path). Keeping the
// formulas in one leaf package guarantees the two cannot drift apart
// formula-by-formula; the parity property tests in internal/cost then
// only have to certify the state threading.
package costmath

import (
	"math"

	"repro/internal/combinatorics"
	"repro/internal/pattern"
)

// Misses is the paper's per-level pair (M^s, M^r): expected sequential
// and random cache misses.
type Misses struct {
	Seq float64
	Rnd float64
}

// Total returns M^s + M^r.
func (m Misses) Total() float64 { return m.Seq + m.Rnd }

// Add returns the pairwise sum.
func (m Misses) Add(o Misses) Misses { return Misses{m.Seq + o.Seq, m.Rnd + o.Rnd} }

// Scale returns the pair scaled by f.
func (m Misses) Scale(f float64) Misses { return Misses{m.Seq * f, m.Rnd * f} }

// Level is one cache level's effective parameters. Capacity and line
// count are float64 because concurrent execution divides the cache
// among patterns in footprint proportion (Eq. 5.3), yielding fractional
// effective capacities.
type Level struct {
	C float64 // (effective) capacity in bytes
	B float64 // line size in bytes
	L float64 // (effective) number of lines, C/B
}

// Scaled returns the level with capacity and line count multiplied by
// nu (0 < nu ≤ 1), the cache-division step of Eq. 5.3.
func (l Level) Scaled(nu float64) Level {
	return Level{C: l.C * nu, B: l.B, L: l.L * nu}
}

// Classify wraps a raw miss count into a Misses pair according to
// whether the pattern achieves sequential latency.
func Classify(count float64, seq bool) Misses {
	if seq {
		return Misses{Seq: count}
	}
	return Misses{Rnd: count}
}

// LinesPerItem returns the expected number of cache lines of size b
// that an access to u consecutive bytes touches, averaged over all b
// possible alignments of the item within a line (the paper's
// Eq. 4.3/4.5 term):
//
//	⌈u/B⌉ + ((u−1) mod B) / B
//
// For u aligned at the start of a line ⌈u/B⌉ lines suffice; (u−1) mod B
// of the B alignments need one extra line.
func LinesPerItem(u, b float64) float64 {
	if u <= 0 {
		return 0
	}
	return math.Ceil(u/b) + math.Mod(u-1, b)/b
}

// LinesCovered returns |R|_B = ⌈‖R‖ / B⌉ for a region of size bytes.
func LinesCovered(size int64, b float64) float64 {
	return math.Ceil(float64(size) / b)
}

// GapSmall reports whether the untouched gap between adjacent accesses
// is smaller than a cache line: w − u < B. In that case every line
// covered by the region gets loaded during a traversal.
func GapSmall(w int64, u, b float64) bool {
	return float64(w)-u < b
}

// STravCount returns the miss count of a single sequential traversal
// (Eqs. 4.2 and 4.3) over a region of n items of w bytes, touching u
// bytes per item (u pre-resolved via Used). The seq/rnd classification
// is applied by the caller, because the s_trav° and s_trav~ variants
// share the count.
func STravCount(lv Level, n, w int64, u float64) float64 {
	if GapSmall(w, u, lv.B) {
		// Eq. 4.2: the gaps are smaller than a line, so every covered
		// line is loaded exactly once.
		return LinesCovered(n*w, lv.B)
	}
	// Eq. 4.3: each item loads its own lines; average over alignments.
	return float64(n) * LinesPerItem(u, lv.B)
}

// RTravCount returns the miss count of a single random traversal
// (Eqs. 4.4 and 4.5).
func RTravCount(lv Level, n, w int64, u float64) float64 {
	if !GapSmall(w, u, lv.B) {
		// Eq. 4.5: with gaps larger than a line no access benefits from
		// a previously loaded line, so the count equals the sequential
		// case.
		return float64(n) * LinesPerItem(u, lv.B)
	}
	// Eq. 4.4: all covered lines are loaded at least once. Once the
	// region exceeds the cache, a line that serves several (locally
	// adjacent, temporally scattered) accesses may be evicted in
	// between; the extra misses grow with the excess |R| − #, and can
	// occur only for the accesses beyond the C/R.w items that fit.
	lines := LinesCovered(n*w, lv.B)
	m := lines
	if lines > lv.L {
		nInCache := lv.C / float64(w)
		extraAccesses := float64(n) - nInCache
		if extraAccesses > 0 {
			m += extraAccesses * (lines - lv.L) / lines
		}
	}
	return m
}

// RSTravCount returns the miss count of a repetitive sequential
// traversal (Eq. 4.6) given the single-traversal count m0.
func RSTravCount(lv Level, m0 float64, repeats int64, dir pattern.Direction) float64 {
	r := float64(repeats)
	switch {
	case m0 <= lv.L:
		// Everything fits: only the first traversal misses.
		return m0
	case dir == pattern.Uni:
		// Each sweep starts where the cache holds nothing useful.
		return r * m0
	default: // Bi
		// A reversing sweep reuses the # lines left by its predecessor.
		return m0 + (r-1)*(m0-lv.L)
	}
}

// RRTravCount returns the miss count of a repetitive random traversal
// (Eq. 4.7) given the single-traversal count m0.
func RRTravCount(lv Level, m0 float64, repeats int64) float64 {
	r := float64(repeats)
	if m0 <= lv.L {
		return m0
	}
	// A subsequent sweep finds each of the # resident lines useful with
	// probability #/m0.
	return m0 + (r-1)*(m0-lv.L*lv.L/m0)
}

// RAccLines returns the expected number of distinct cache lines ℓ
// touched by r_acc (the Section 4.6 derivation): the expected distinct
// item count D (Stirling expectation, closed form) mapped to lines via
// the dense/sparse interpolation.
func RAccLines(lv Level, n, w int64, u float64, count int64) float64 {
	if n <= 0 || count <= 0 {
		// A zero-size region (or no accesses at all) touches nothing;
		// guard before the distinct-item expectation, which is
		// undefined for an empty urn.
		return 0
	}
	// Expected number of distinct items touched by `count` independent
	// uniform accesses (closed form of the Stirling-number expectation).
	d := combinatorics.ExpectedDistinct(n, count)
	if d == 0 {
		return 0
	}

	// Expected number of distinct lines touched.
	var lines float64
	if !GapSmall(w, u, lv.B) {
		// Gaps larger than a line: no line serves two items.
		lines = d * LinesPerItem(u, lv.B)
	} else {
		// Dense bound: the d items pairwise adjacent.
		dense := d * float64(w) / lv.B
		// Sparse bound: gaps still larger than a line despite w−u < B.
		sparse := d * LinesPerItem(u, lv.B)
		if cov := LinesCovered(n*w, lv.B); sparse > cov {
			sparse = cov
		}
		// Linear combination: dense is likely when d approaches R.n.
		lambda := d / float64(n)
		lines = lambda*dense + (1-lambda)*sparse
	}
	if lines < 1 {
		lines = 1
	}
	return lines
}

// RAccCount returns the miss count of r_acc (Eq. 4.8 and the preceding
// derivation in Section 4.6).
func RAccCount(lv Level, n, w int64, u float64, count int64) float64 {
	lines := RAccLines(lv, n, w, u, count)
	if lines == 0 {
		return 0
	}
	if lines <= lv.L {
		return lines
	}
	// The hot set exceeds the cache: beyond the ℓ compulsory misses,
	// each line fetch finds its line resident only with probability #/ℓ
	// (the cache retains # of the ℓ hot lines). An access of u bytes is
	// max(1, u/B) line fetches, so the remaining count·max(1,u/B) − ℓ
	// fetches each miss with probability 1 − #/ℓ. (Reconstruction of
	// Eq. 4.8's tail; validated against LRU simulation to within a few
	// percent across count/size/width sweeps.)
	perAccess := u / lv.B
	if perAccess < 1 {
		perAccess = 1
	}
	extra := float64(count)*perAccess - lines
	if extra < 0 {
		extra = 0
	}
	return lines + extra*(1-lv.L/lines)
}

// NestCounts returns the misses of an interleaved multi-cursor access
// (Section 4.7, Eq. 4.9) over a region of n items of w bytes split into
// m sub-regions. Unlike the other basics it returns a full Misses pair
// because its base misses and its extra cross-traversal misses can
// carry different classifications. u is pre-resolved via Used; count is
// the per-cursor access count for an InnerRAcc inner pattern.
func NestCounts(lv Level, n, w int64, u float64, m int64, inner pattern.InnerKind, count int64, order pattern.Order, noSeq bool) Misses {
	switch inner {
	case pattern.InnerRTrav:
		// Local random access: the whole pattern behaves like a single
		// random traversal of R (Section 4.7.1).
		return Misses{Rnd: RTravCount(lv, n, w, u)}
	case pattern.InnerRAcc:
		// m local cursors, each performing Count random accesses: in
		// total m·Count independent accesses over R.
		return Misses{Rnd: RAccCount(lv, n, w, u, m*count)}
	}

	// Local sequential access (Section 4.7.2).
	seqKind := order != pattern.OrderRandom && !noSeq

	if !GapSmall(w, u, lv.B) {
		// Case ⟨1⟩ R.w − u ≥ B: the pattern amounts to R.n/m cross
		// traversals of m slots with stride ‖R_j‖; no line is shared,
		// so the count equals the plain traversal over R. A random
		// global order makes the misses random.
		return Classify(float64(n)*LinesPerItem(u, lv.B), seqKind)
	}

	// Lines touched by one cross-traversal: one slot per sub-region.
	lCross := float64(m) * math.Ceil(u/lv.B)
	base := LinesCovered(n*w, lv.B)

	if lCross <= lv.L {
		// Case ⟨2⟩: a full cross-traversal fits in the cache, so the
		// lines shared between subsequent cross-traversals survive; the
		// total is the sum of the local sequential patterns.
		return Classify(base, seqKind)
	}

	// Case ⟨3⟩: a cross-traversal exceeds the cache; only some lines
	// survive until the next cross-traversal, the rest are reloaded.
	var reuse float64
	switch order {
	case pattern.OrderUni:
		reuse = 0
	case pattern.OrderBi:
		reuse = lv.L
	default: // random global order: probabilistic reuse as in Eq. 4.7
		reuse = lv.L * lv.L / lCross
	}
	sweeps := float64(n) / float64(m)
	delta := (sweeps - 1) * (lCross - reuse)
	if delta < 0 {
		delta = 0
	}
	out := Classify(base, seqKind)
	out.Rnd += delta // the reloads are scattered: random latency
	return out
}
