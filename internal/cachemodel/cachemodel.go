// Package cachemodel is the analytical measurement backend: it prices a
// data access pattern (internal/pattern) on a hardware.Hierarchy without
// replaying an address trace. Where internal/cachesim drives every
// simulated load through set-associative LRU arrays, this package
// derives, per cache level, the distribution of LRU stack distances
// (reuse distances) each basic pattern generates, converts the
// distribution to a miss count for a fully associative LRU cache (a
// reference with stack distance d hits iff d < #lines), and applies the
// binomial limited-associativity correction of Smith / Sen et al. so the
// repository's set-associative profiles (Origin2000, modern-x86,
// including their TLB levels) are priced directly.
//
// The approach follows Gysi et al., "A Fast Analytical Model of Fully
// Associative Caches" (PLDI 2019): instead of enumerating references,
// every basic pattern contributes a small set of symbolic distance
// distributions — cold (first touches), a point mass (uni-directional
// re-sweeps revisit a line after exactly the footprint), a uniform mass
// (bi-directional re-sweeps and independent random accesses), and a
// quadratic mass (random re-traversals, reproducing the paper's L²/m0
// survivor term). Sequential composition (⊕) threads a symbolic region
// stack so a later phase finds an earlier phase's leftovers at the
// right depth; concurrent composition (⊙) inflates every distance by
// the lines the interleaved siblings push between two uses of a line.
//
// Validation reads one number from a Result: its latency-scored memory
// time, which internal/sweep reports as sweep.Result.MeasuredNS, where
// the trace backend reads cachesim.Simulator.MemoryTimeNS. The model is O(atoms × levels × ways) per pattern — milliseconds for
// the full validation grid where the trace backend needs seconds.
package cachemodel

import (
	"fmt"
	"math"

	"repro/internal/costmath"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// Model prices patterns on one hierarchy. It is immutable after New and
// safe for concurrent use.
type Model struct {
	hier   *hardware.Hierarchy
	levels []geom
}

// geom is one level's geometry in the units the analysis works in.
type geom struct {
	spec hardware.Level
	lv   costmath.Level // B, L, C as float64
	ways int            // effective associativity
	sets float64        // number of associative sets
	full bool           // fully associative: exact LRU stack condition
}

// New builds a model for the hierarchy. Unlike cachesim.New it returns
// an error instead of panicking, so servers can reject a bad profile.
func New(h *hardware.Hierarchy) (*Model, error) {
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("cachemodel: %w", err)
	}
	m := &Model{hier: h}
	for _, spec := range h.Levels {
		m.levels = append(m.levels, geom{
			spec: spec,
			lv: costmath.Level{
				C: float64(spec.Capacity),
				B: float64(spec.LineSize),
				L: float64(spec.Lines()),
			},
			ways: spec.Ways(),
			sets: float64(spec.Sets()),
			full: spec.FullyAssociative(),
		})
	}
	return m, nil
}

// levelResult accumulates one level's expectations in float64.
type levelResult struct {
	accesses float64
	seqMiss  float64
	rndMiss  float64
}

// Result is the priced outcome of one pattern.
type Result struct {
	hier   *hardware.Hierarchy
	levels []levelResult
}

// MemoryTimeNS scores the expected misses with the hierarchy's
// latencies, exactly as cachesim.Simulator.MemoryTimeNS scores its
// counted ones.
func (r *Result) MemoryTimeNS() float64 {
	var t float64
	for i, lr := range r.levels {
		spec := r.hier.Levels[i]
		t += lr.seqMiss*spec.SeqMissLatency + lr.rndMiss*spec.RndMissLatency
	}
	return t
}

// priceInto runs the per-level analysis of prep with az's scratch
// buffers, writing the outcome into res (levels resized in place).
func (m *Model) priceInto(az *analyzer, prep *PreparedPattern, res *Result) {
	res.hier = m.hier
	if cap(res.levels) < len(m.levels) {
		res.levels = make([]levelResult, len(m.levels))
	}
	res.levels = res.levels[:len(m.levels)]
	var prevDataMisses float64
	firstData := true
	for i, g := range m.levels {
		az.level = int32(i)
		lr := az.analyzeLevel(g, prep.phases)
		if !g.spec.TLB {
			// The trace simulator filters data-level hits from the levels
			// behind them; mirror that in the access counters (the miss
			// expectations are per-level and unaffected).
			if !firstData {
				lr.accesses = prevDataMisses
				if total := lr.seqMiss + lr.rndMiss; total > lr.accesses {
					scale := lr.accesses / total
					if total == 0 {
						scale = 0
					}
					lr.seqMiss *= scale
					lr.rndMiss *= scale
				}
			}
			prevDataMisses = lr.seqMiss + lr.rndMiss
			firstData = false
		}
		res.levels[i] = lr
	}
}

// phase is one step of the flattened ⊕-sequence: one atom, or several
// ⊙-interleaved atoms.
type phase struct {
	atoms []atom
}

// atom is one basic pattern occurrence in program order. The root of
// its region's parent chain — the identity the symbolic region stack
// tracks — and the value key of its analysis parameters are resolved
// at flatten time so level analysis stays allocation-free and profiles
// of geometrically identical atoms can share one computation.
type atom struct {
	p    pattern.Pattern
	root *region.Region
	pk   profileKey
}

// profileKey captures every input of profileAtom except the level
// geometry: the basic pattern kind and its numeric parameters, plus
// the region's (n, w). Atoms with equal keys produce bit-identical
// profiles on the same level — the recursive operator patterns
// (quick-sort halves, radix passes, B-tree levels) repeat a handful of
// keys exponentially often.
type profileKey struct {
	op    uint8
	n     int64
	w     int64
	u     int64
	a     int64 // repeats (rs_trav/rr_trav) or count (r_acc/nest)
	m     int64 // nest cursors
	dir   pattern.Direction
	inner pattern.InnerKind
	order pattern.Order
	noSeq bool
}

// Basic pattern kinds for profileKey.op.
const (
	pkSTrav uint8 = iota
	pkRSTrav
	pkRTrav
	pkRRTrav
	pkRAcc
	pkNest
)

// profileKeyOf extracts the value key of a basic pattern.
func profileKeyOf(p pattern.Pattern) profileKey {
	switch q := p.(type) {
	case pattern.STrav:
		return profileKey{op: pkSTrav, n: q.R.N, w: q.R.W, u: q.U, noSeq: q.NoSeq}
	case pattern.RSTrav:
		return profileKey{op: pkRSTrav, n: q.R.N, w: q.R.W, u: q.U, a: q.Repeats, dir: q.Dir, noSeq: q.NoSeq}
	case pattern.RTrav:
		return profileKey{op: pkRTrav, n: q.R.N, w: q.R.W, u: q.U}
	case pattern.RRTrav:
		return profileKey{op: pkRRTrav, n: q.R.N, w: q.R.W, u: q.U, a: q.Repeats}
	case pattern.RAcc:
		return profileKey{op: pkRAcc, n: q.R.N, w: q.R.W, u: q.U, a: q.Count}
	case pattern.Nest:
		return profileKey{op: pkNest, n: q.R.N, w: q.R.W, u: q.U, a: q.Count, m: q.M, inner: q.Inner, order: q.Order, noSeq: q.NoSeq}
	default:
		panic(fmt.Sprintf("cachemodel: unexpected compound %T after flatten", p))
	}
}

// flatten linearizes the pattern tree into phases: Seq children follow
// one another; a Conc contributes a single phase with all the basic
// patterns of its subtree interleaved (nested Seq inside Conc is
// approximated as interleaved too — the engine's operators do not
// generate that shape).
func flatten(p pattern.Pattern) []phase {
	switch q := p.(type) {
	case pattern.Seq:
		var out []phase
		for _, sub := range q {
			out = append(out, flatten(sub)...)
		}
		return out
	case pattern.Conc:
		var ph phase
		for _, sub := range q {
			for _, sp := range flatten(sub) {
				ph.atoms = append(ph.atoms, sp.atoms...)
			}
		}
		return []phase{ph}
	default:
		return []phase{{atoms: []atom{{p: p, root: rootOf(p.Regions()[0]), pk: profileKeyOf(p)}}}}
	}
}

// rootOf returns the topmost ancestor of a region — the identity the
// symbolic region stack tracks (a sub-region is resident iff its root's
// recently-touched lines cover it).
func rootOf(r *region.Region) *region.Region {
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// distKind discriminates the symbolic distance distributions.
type distKind int

const (
	dCold distKind = iota // never seen: always a miss
	dPoint
	dUniform // uniform over [lo, hi)
	dQuad    // CDF (x/hi)², x in [0, hi): random re-traversal survivors
)

// mass is `count` line references sharing one distance distribution.
// gapRate and sat control how a stack distance converts back into
// elapsed access quanta for ⊙-sibling inflation (see expectedMissProb):
// sat > 0 marks a random-access reuse gap whose distinct-line count
// saturates exponentially towards sat; otherwise distinct lines grow
// linearly at gapRate (0 falls back to the atom's whole-run rate).
type mass struct {
	kind    distKind
	lo, hi  float64 // point: lo; uniform: [lo,hi); quad: [0,hi)
	count   float64
	seq     bool // classification if the reference misses
	gapRate float64
	sat     float64
}

// peer describes a ⊙-sibling for distance inflation: between two uses
// of a line by this atom, every live sibling advances in lock-step
// (the driver interleaves one access quantum round-robin) and pushes
// fresh lines onto the LRU stack.
type peer struct {
	footprint float64 // distinct lines the sibling touches in total
	rate      float64 // distinct lines per access quantum
}

// atomProfile is one atom's per-level analysis. Revisit masses live in
// a fixed-size array (no profile generates more than two) so pooled
// analyzers stay allocation-free.
type atomProfile struct {
	footprint float64 // distinct lines touched (region-stack credit)
	accesses  float64 // line-granule references
	rate      float64 // footprint/accesses (distance inflation)
	seq       bool    // classification of first-touch misses
	nRev      int32
	rev       [2]mass // pattern-internal revisit masses
}

// addRevisit records one pattern-internal revisit mass.
func (pr *atomProfile) addRevisit(m mass) {
	pr.rev[pr.nRev] = m
	pr.nRev++
}

// revisits returns the recorded revisit masses.
func (pr *atomProfile) revisits() []mass { return pr.rev[:pr.nRev] }

// profileAtom derives one basic pattern's per-level distance profile.
func profileAtom(g geom, p pattern.Pattern) atomProfile {
	switch q := p.(type) {
	case pattern.STrav:
		return sTravProfile(g, q.R, q.U, 1, pattern.Uni, q.NoSeq)
	case pattern.RSTrav:
		return sTravProfile(g, q.R, q.U, q.Repeats, q.Dir, q.NoSeq)
	case pattern.RTrav:
		return rTravProfile(g, q.R, q.U, 1)
	case pattern.RRTrav:
		return rTravProfile(g, q.R, q.U, q.Repeats)
	case pattern.RAcc:
		return rAccProfile(g, q.R, q.U, q.Count)
	case pattern.Nest:
		return nestProfile(g, q)
	default:
		panic(fmt.Sprintf("cachemodel: unexpected compound %T after flatten", p))
	}
}

// refLinesPerItem is the average number of line-granule references one
// item touch generates. Engine tables are line-aligned, so item i
// starts at offset i·w mod B within a line and the average over the
// offset period B/gcd(w,B) is exact — when the grids nest (w divides B
// or vice versa) it degenerates to ⌈u/B⌉; for straddling widths (the
// 24-byte aggregation buckets on 32-byte lines) it is below the paper's
// unaligned expectation ⌊u/B⌋ + 1 (Eq. 4.1), which assumes arbitrary
// item placement.
func refLinesPerItem(u float64, w int64, b float64) float64 {
	if u <= 0 {
		return 1
	}
	bi := int64(b)
	if w <= 0 || bi <= 0 {
		return costmath.LinesPerItem(u, b)
	}
	g := gcd(w%bi, bi)
	period := bi / g // distinct start offsets
	if period > 1<<16 {
		return costmath.LinesPerItem(u, b) // degenerate geometry: fall back
	}
	ui := int64(math.Ceil(u))
	var total int64
	off := int64(0)
	for i := int64(0); i < period; i++ {
		total += (off+ui-1)/bi - off/bi + 1
		off = (off + w) % bi
	}
	return float64(total) / float64(period)
}

// gcd is the euclidean greatest common divisor (gcd(0, b) = b).
func gcd(a, b int64) int64 {
	for a != 0 {
		a, b = b%a, a
	}
	return b
}

// sTravProfile covers s_trav and rs_trav (Eqs. 4.2/4.3/4.6 in
// stack-distance form): one sweep touches F distinct lines; every
// further sweep revisits each at a distance of the full footprint
// (uni-directional) or uniformly distributed below it (bi-directional,
// because the reversal revisits the freshest lines first).
func sTravProfile(g geom, r *region.Region, u0 int64, repeats int64, dir pattern.Direction, noSeq bool) atomProfile {
	n, w := r.N, r.W
	u := float64(pattern.Used(u0, r))
	seq := !noSeq
	gapSmall := costmath.GapSmall(w, u, g.lv.B)
	perItem := refLinesPerItem(u, w, g.lv.B)
	var f float64
	if gapSmall {
		f = costmath.LinesCovered(n*w, g.lv.B)
	} else {
		f = float64(n) * perItem
	}
	pr := atomProfile{
		footprint: f,
		accesses:  float64(repeats) * float64(n) * perItem,
		seq:       seq,
	}
	if pr.accesses > 0 {
		pr.rate = f / (float64(n) * perItem) // distinct lines per quantum of one sweep
	}
	if gapSmall {
		// Adjacent items share lines: the surplus references within one
		// sweep revisit at distance ~0 (always hits, at any geometry with
		// at least one way).
		if extra := float64(repeats) * (float64(n)*perItem - f); extra > 0 {
			pr.addRevisit(mass{kind: dPoint, lo: 0, count: extra, seq: seq})
		}
	}
	if repeats > 1 {
		cnt := float64(repeats-1) * f
		if dir == pattern.Uni {
			pr.addRevisit(mass{kind: dPoint, lo: f, count: cnt, seq: seq})
		} else {
			pr.addRevisit(mass{kind: dUniform, lo: 0, hi: f, count: cnt, seq: seq})
		}
	}
	return pr
}

// rTravProfile covers r_trav and rr_trav (Eqs. 4.4/4.5/4.7): a random
// permutation revisits a shared line at a uniform distance within the
// footprint; a further random sweep finds a line still resident only if
// it survived both since its last use and until its next one — the
// quadratic distribution whose fully associative expectation is the
// paper's L²/m0 survivor count.
func rTravProfile(g geom, r *region.Region, u0 int64, repeats int64) atomProfile {
	n, w := r.N, r.W
	u := float64(pattern.Used(u0, r))
	gapSmall := costmath.GapSmall(w, u, g.lv.B)
	perItem := refLinesPerItem(u, w, g.lv.B)
	var f float64
	if gapSmall {
		f = costmath.LinesCovered(n*w, g.lv.B)
	} else {
		f = float64(n) * perItem
	}
	pr := atomProfile{
		footprint: f,
		accesses:  float64(repeats) * float64(n) * perItem,
		seq:       false,
	}
	if pr.accesses > 0 {
		pr.rate = f / (float64(n) * perItem)
	}
	perSweepRefs := float64(n) * perItem
	if gapSmall && perSweepRefs > f {
		// Within one sweep the surplus references to shared lines arrive
		// at uniform stack distances inside the footprint.
		pr.addRevisit(mass{
			kind: dUniform, lo: 0, hi: f,
			count: float64(repeats) * (perSweepRefs - f),
			sat:   f,
		})
	}
	if repeats > 1 {
		pr.addRevisit(mass{
			kind: dQuad, hi: f,
			count: float64(repeats-1) * f,
			sat:   f,
		})
	}
	return pr
}

// rAccProfile covers r_acc (Eq. 4.8): count independent uniform
// accesses touch an expected ℓ distinct lines (the Stirling
// expectation of costmath.RAccLines); the remaining references revisit
// at uniform distances within that hot set — the independent-reference
// model's uniform stack-distance distribution.
func rAccProfile(g geom, r *region.Region, u0 int64, count int64) atomProfile {
	u := float64(pattern.Used(u0, r))
	f := costmath.RAccLines(g.lv, r.N, r.W, u, count)
	perAccess := refLinesPerItem(u, r.W, g.lv.B)
	refs := float64(count) * perAccess
	pr := atomProfile{footprint: f, accesses: refs, seq: false}
	if refs > 0 {
		pr.rate = f / refs
	}
	if extra := refs - f; extra > 0 && f > 0 {
		pr.addRevisit(mass{kind: dUniform, lo: 0, hi: f, count: extra, sat: f})
	}
	return pr
}

// nestProfile covers nest (Eq. 4.9): m interleaved local cursors. Local
// random patterns collapse to their global equivalents; local
// sequential cursors generate cross-traversals of one line slot per
// sub-region, whose revisit distance is the cross-footprint (ordered by
// the global cursor exactly like rs_trav/rr_trav order the sweeps).
func nestProfile(g geom, q pattern.Nest) atomProfile {
	switch q.Inner {
	case pattern.InnerRTrav:
		return rTravProfile(g, q.R, q.U, 1)
	case pattern.InnerRAcc:
		return rAccProfile(g, q.R, q.U, q.M*q.Count)
	}
	n, w := q.R.N, q.R.W
	u := float64(pattern.Used(q.U, q.R))
	seq := q.Order != pattern.OrderRandom && !q.NoSeq
	gapSmall := costmath.GapSmall(w, u, g.lv.B)
	perItem := refLinesPerItem(u, w, g.lv.B)
	if !gapSmall {
		f := float64(n) * perItem
		pr := atomProfile{footprint: f, accesses: f, seq: seq}
		if f > 0 {
			pr.rate = 1
		}
		return pr
	}
	f := costmath.LinesCovered(n*w, g.lv.B)
	refs := float64(n) * perItem
	pr := atomProfile{footprint: f, accesses: refs, seq: seq}
	if refs > 0 {
		pr.rate = f / refs
	}
	lCross := float64(q.M) * math.Ceil(u/g.lv.B)
	sweeps := float64(n) / float64(q.M)
	if extra := refs - f; extra > 0 {
		// Same-line references within one cross-traversal slot.
		pr.addRevisit(mass{kind: dPoint, lo: 0, count: extra, seq: seq})
	}
	if sweeps > 1 && lCross > 0 {
		cnt := (sweeps - 1) * lCross
		// Reloads across cross-traversals are scattered: random latency
		// (the Rnd-classified delta of costmath.NestCounts). Inside one
		// cross-traversal nearly every access lands on a different
		// cursor's line, so distinct lines accrue at the local rate
		// lCross per cross-sweep of refs/sweeps accesses — far faster
		// than the whole-run average (each line is revisited by all
		// sweeps).
		gapRate := 1.0
		if perSweep := refs / sweeps; perSweep > 0 {
			gapRate = lCross / perSweep
		}
		switch q.Order {
		case pattern.OrderUni:
			pr.addRevisit(mass{kind: dPoint, lo: lCross, count: cnt, gapRate: gapRate})
		case pattern.OrderBi:
			pr.addRevisit(mass{kind: dUniform, lo: 0, hi: lCross, count: cnt, gapRate: gapRate})
		default:
			pr.addRevisit(mass{kind: dQuad, hi: lCross, count: cnt, gapRate: gapRate})
		}
	}
	return pr
}

// distSamples is the midpoint-rule resolution for integrating the miss
// probability over a continuous distance distribution.
const distSamples = 33

// expectedMissProb integrates the level's miss probability over one
// distance mass, applying ⊙-sibling inflation to every sampled
// distance. ownRate is the atom's distinct-line rate (lines per access
// quantum), used to convert a distance into elapsed quanta.
func expectedMissProb(g geom, ms mass, ownRate float64, peers []peer) float64 {
	// quantaFor converts a stack distance (d distinct own lines touched
	// inside the reuse gap) into the elapsed own access quanta. For
	// sequential gaps distinct lines accrue linearly; for random-access
	// gaps (sat > 0) they saturate as f·(1−(1−1/f)^G), so the inverse
	// G = −f·ln(1 − d/f) is ≈ d for short gaps and diverges as d → f
	// (the peer footprint caps then take over).
	quantaFor := func(d float64) float64 {
		if ms.sat > 0 {
			if d >= ms.sat {
				return math.Inf(1)
			}
			return -ms.sat * math.Log(1-d/ms.sat)
		}
		r := ms.gapRate
		if r == 0 {
			r = ownRate
		}
		if r > 0 {
			return d / r
		}
		return d
	}
	inflate := func(d float64) float64 {
		if len(peers) == 0 || d <= 0 {
			return d
		}
		// Each sibling runs the same number of quanta inside the gap
		// (round-robin interleaving) and contributes fresh lines at its
		// own rate, capped by its footprint.
		quanta := quantaFor(d)
		out := d
		for _, p := range peers {
			add := quanta * p.rate
			if add > p.footprint {
				add = p.footprint
			}
			out += add
		}
		return out
	}
	switch ms.kind {
	case dCold:
		return 1
	case dPoint:
		return missProb(g, inflate(ms.lo))
	case dUniform:
		if ms.hi <= ms.lo {
			return missProb(g, inflate(ms.lo))
		}
		var sum float64
		for i := 0; i < distSamples; i++ {
			x := ms.lo + (ms.hi-ms.lo)*(float64(i)+0.5)/distSamples
			sum += missProb(g, inflate(x))
		}
		return sum / distSamples
	case dQuad:
		if ms.hi <= 0 {
			return 0
		}
		// Sample at the quantiles of CDF (x/hi)²: x_q = hi·√q.
		var sum float64
		for i := 0; i < distSamples; i++ {
			q := (float64(i) + 0.5) / distSamples
			sum += missProb(g, inflate(ms.hi*math.Sqrt(q)))
		}
		return sum / distSamples
	}
	return 1
}

// missProb is the probability that a reference with fully associative
// LRU stack distance d misses this level. Fully associative caches give
// the exact step function (miss iff d ≥ #lines). For an A-way cache
// with S sets, the d intervening distinct lines scatter binomially over
// the sets (Smith's model, used by Sen et al. to map stack distances to
// set-associative miss ratios): the reference survives iff fewer than A
// of them land in its own set,
//
//	P(hit | d) = Σ_{j=0}^{A−1} C(d, j) (1/S)^j (1 − 1/S)^{d−j}.
//
// Real-valued d (expectations) is handled by evaluating the binomial
// coefficient through log-gamma.
func missProb(g geom, d float64) float64 {
	if d < 0 {
		d = 0
	}
	if g.full {
		if d >= g.lv.L {
			return 1
		}
		return 0
	}
	a := float64(g.ways)
	if d < a {
		return 0 // even all-in-one-set leaves a free way
	}
	p := 1 / g.sets
	mean := d * p
	// Far tail: the set holds none of its lines long before the binomial
	// sum underflows; 12σ past A the hit probability is numerically 0.
	if mean > a+12*math.Sqrt(mean*(1-p))+1 {
		return 1
	}
	logp := math.Log(p)
	log1p := math.Log1p(-p)
	lgd, _ := math.Lgamma(d + 1)
	var hit float64
	for j := 0; float64(j) < a; j++ {
		jf := float64(j)
		if jf > d {
			break
		}
		lgj, _ := math.Lgamma(jf + 1)
		lgdj, _ := math.Lgamma(d - jf + 1)
		hit += math.Exp(lgd - lgj - lgdj + jf*logp + (d-jf)*log1p)
	}
	if hit > 1 {
		hit = 1
	}
	return 1 - hit
}
