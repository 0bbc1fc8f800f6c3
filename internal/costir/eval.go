package costir

import (
	"math"
	"slices"
	"sync"

	"repro/internal/costmath"
	"repro/internal/hardware"
	"repro/internal/pattern"
)

// This file is the zero-allocation evaluator of compiled programs. It
// mirrors the semantics of the reference tree walker in
// internal/cost/combine.go instruction by instruction:
//
//   - Eq. 5.1: basic instructions adjust their cold-cache count by the
//     resident fraction of their region (inherited through the
//     sub-region parent chain).
//   - Eq. 5.2: ⊕ is implicit — cache state threads from one
//     instruction to the next.
//   - Eq. 5.3: opConc/opNext/opEnd divide the cache among ⊙ children
//     in footprint proportion, evaluate every child from the same
//     entry state, and max-merge the children's result states.
//
// The cache state of one level is a compact row: the resident regions
// only, sorted by region index, each entry carrying everything a merge
// reads about its region inline — preorder interval, size in bytes,
// name rank — beside its resident fraction and resident bytes. Rows
// hold at most maxStateEntries entries after every bounded merge, so
// state merges, snapshots and restores cost O(resident entries) with
// sequential reads, however many regions the program interns.
// Iteration follows the rows in ascending region-index order — the
// order a dense scan over the region table would visit — so
// floating-point sums are bit-identical to the reference walker's.
// All cache levels are computed in a single pass over the instruction
// stream, and every scratch buffer lives in an evaluator drawn from one
// process-wide pool, so evaluation performs no heap allocation once
// the pool has seen programs of the same shape.

// Misses is the per-level pair (M^s, M^r) of expected sequential and
// random misses, shared with internal/cost via internal/costmath.
type Misses = costmath.Misses

// maxStateEntries bounds the number of resident regions tracked per
// level, mirroring the tree walker's bound (internal/cost/combine.go):
// retention keeps the entries holding the most resident bytes — the
// only ones that can change a later prediction.
const maxStateEntries = 96

// span is what a compact row needs to know about one region. The
// compiler builds one per region (Program.ents), so a merge never
// reads the region table.
type span struct {
	reg int32 // dense region index; rows are sorted by it
	// pre/end is the region's preorder interval (see numberForest).
	pre, end int32
	// rank orders region names: a < b as strings exactly when
	// rank(a) < rank(b). It breaks retention ties without comparing
	// strings.
	rank int32
	size float64 // ‖R‖ in bytes
}

// entry is one resident region of a compact row.
type entry struct {
	span
	rho float64 // resident fraction (0 < rho ≤ 1)
	// key is the resident bytes rho·size, computed whenever rho is
	// set: the retention key of boundRow and the term of every byte
	// sum.
	key float64
}

// related reports whether two regions overlap in memory: one is an
// ancestor-or-self of the other. Preorder intervals of a forest nest or
// are disjoint, so they are related exactly when they intersect; the
// test compiles to conditional moves and one well-predicted branch.
func (a *span) related(b *span) bool {
	return max(a.pre, b.pre) < min(a.end, b.end)
}

// keepsBefore reports whether a ranks above b in the retention order:
// more resident bytes, ties by name ascending, then index ascending —
// the tree walker's boundState order made total.
func keepsBefore(a, b *entry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.reg < b.reg
}

// Evaluate computes the expected misses of the compiled pattern per
// level of h, on cold caches, appending one Misses per hierarchy level
// to dst[:0] and returning it. Passing a dst with capacity
// len(h.Levels) makes the call allocation-free. Evaluate is safe for
// concurrent use on the same Program.
func (p *Program) Evaluate(h *hardware.Hierarchy, dst []Misses) []Misses {
	nL := len(h.Levels)
	ev := getEvaluator(p, nL)
	ev.run(p, h.Levels)
	dst = append(dst[:0], ev.miss[:nL]...)
	evalPool.Put(ev)
	return dst
}

// MemoryTimeNS computes T_mem (Eq. 3.1) of the compiled pattern on h:
// per-level misses scored with the level miss latencies. It performs
// no heap allocation in steady state.
func (p *Program) MemoryTimeNS(h *hardware.Hierarchy) float64 {
	ev := getEvaluator(p, len(h.Levels))
	ev.run(p, h.Levels)
	var t float64
	for i := range h.Levels {
		t += ev.miss[i].Seq*h.Levels[i].SeqMissLatency + ev.miss[i].Rnd*h.Levels[i].RndMissLatency
	}
	evalPool.Put(ev)
	return t
}

// evalPool holds the evaluators of every program: their buffers grow
// with the resident rows and the ⊙ nesting, not with a program's
// region count, so one evaluator serves any program.
var evalPool = sync.Pool{New: func() any { return new(evaluator) }}

// frame is the scratch state of one active ⊙ group.
type frame struct {
	snap   [][]entry        // entry state per level (children start equal)
	merged [][]entry        // per level: pointwise max of children's result states
	saved  []costmath.Level // level params before cache division
	slot0  int32
	n      int32
	child  int32
}

// evaluator holds every scratch buffer one evaluation needs. Each
// buffer keeps its role and only grows, so a pooled evaluator reaches a
// steady state with no further allocation.
type evaluator struct {
	nL       int       // level capacity buffers are sized for
	state    [][]entry // live cache state per level
	surv     []entry   // concMerge: entry-state survivors; boundRow: sort scratch
	miss     []Misses
	lp       []costmath.Level
	frames   []frame
	footVals []float64
	footStk  []float64
}

func getEvaluator(p *Program, nL int) *evaluator {
	ev := evalPool.Get().(*evaluator)
	ev.ensure(p, nL)
	return ev
}

func (ev *evaluator) ensure(p *Program, nL int) {
	if nL > ev.nL {
		ev.nL = nL
	}
	capL := ev.nL
	if len(ev.state) < capL {
		ev.state = append(ev.state, make([][]entry, capL-len(ev.state))...)
	}
	if len(ev.miss) < capL {
		ev.miss = make([]Misses, capL)
	}
	if len(ev.lp) < capL {
		ev.lp = make([]costmath.Level, capL)
	}
	if need := p.nSlots * capL; len(ev.footVals) < need {
		ev.footVals = make([]float64, need)
	}
	if len(ev.footStk) < p.footDepth {
		ev.footStk = make([]float64, p.footDepth)
	}
	if len(ev.frames) < p.maxDepth {
		ev.frames = append(ev.frames, make([]frame, p.maxDepth-len(ev.frames))...)
	}
	for i := range ev.frames {
		f := &ev.frames[i]
		if len(f.saved) < capL {
			f.snap = append(f.snap, make([][]entry, capL-len(f.snap))...)
			f.merged = append(f.merged, make([][]entry, capL-len(f.merged))...)
			f.saved = make([]costmath.Level, capL)
		}
	}
}

// run executes the program for all levels in one pass.
func (ev *evaluator) run(p *Program, levels []hardware.Level) {
	nL := len(levels)
	for i := 0; i < nL; i++ {
		ev.lp[i] = costmath.Level{
			C: float64(levels[i].Capacity),
			B: float64(levels[i].LineSize),
			L: float64(levels[i].Lines()),
		}
		ev.miss[i] = Misses{}
		ev.state[i] = ev.state[i][:0]
	}

	ev.footprints(p, nL)

	depth := 0
	for ii := range p.instrs {
		in := &p.instrs[ii]
		switch in.Op {
		case opConc:
			f := &ev.frames[depth]
			depth++
			f.slot0, f.n, f.child = in.Reg, in.N, 0
			for li := 0; li < nL; li++ {
				f.snap[li] = append(f.snap[li][:0], ev.state[li]...)
				f.merged[li] = f.merged[li][:0]
			}
			copy(f.saved[:nL], ev.lp[:nL])
			ev.setChildLp(f, nL)
		case opNext:
			f := &ev.frames[depth-1]
			for li := 0; li < nL; li++ {
				ev.maxMerge(f, li)
				// The next child starts from the entry state.
				ev.state[li] = append(ev.state[li][:0], f.snap[li]...)
			}
			f.child++
			ev.setChildLp(f, nL)
		case opEnd:
			depth--
			f := &ev.frames[depth]
			for li := 0; li < nL; li++ {
				ev.maxMerge(f, li)
				ev.concMerge(f, li)
			}
			copy(ev.lp[:nL], f.saved[:nL])
		default:
			t := &p.ents[in.Reg]
			reg := &p.regions[in.Reg]
			for li := 0; li < nL; li++ {
				ev.evalBasic(in, t, reg, li)
			}
		}
	}
}

// footprints runs the footprint program once per level, filling one
// slot per ⊙ child with F(P) (Section 5.2). Footprints depend only on
// the level's line size, which cache division never changes, so they
// can be computed up front.
func (ev *evaluator) footprints(p *Program, nL int) {
	for li := 0; li < nL; li++ {
		b := ev.lp[li].B
		sp := 0
		stk := ev.footStk
		for i := range p.foot {
			fi := &p.foot[i]
			switch fi.Op {
			case fOne:
				stk[sp] = 1
				sp++
			case fLines:
				stk[sp] = costmath.LinesCovered(p.regions[fi.Reg].Size(), b)
				sp++
			case fRTrav:
				r := &p.regions[fi.Reg]
				if costmath.GapSmall(r.W, float64(fi.U), b) {
					stk[sp] = costmath.LinesCovered(r.Size(), b)
				} else {
					// Each line serves exactly one access; nothing is
					// revisited.
					stk[sp] = 1
				}
				sp++
			case fStore:
				ev.footVals[int(fi.N)*nL+li] = stk[sp-1]
			case fMax:
				k := int(fi.N)
				m := stk[sp-k]
				for j := sp - k + 1; j < sp; j++ {
					if stk[j] > m {
						m = stk[j]
					}
				}
				sp -= k - 1
				stk[sp-1] = m
			case fSum:
				k := int(fi.N)
				var s float64
				for j := sp - k; j < sp; j++ {
					s += stk[j]
				}
				sp -= k - 1
				stk[sp-1] = s
			}
		}
	}
}

// setChildLp applies Eq. 5.3's cache division for the frame's current
// child: each level's effective capacity and line count are scaled by
// the child's footprint share of the whole ⊙ group.
func (ev *evaluator) setChildLp(f *frame, nL int) {
	for li := 0; li < nL; li++ {
		var total float64
		for s := f.slot0; s < f.slot0+f.n; s++ {
			total += ev.footVals[int(s)*nL+li]
		}
		nu := 1.0
		if total > 0 {
			nu = ev.footVals[int(f.slot0+f.child)*nL+li] / total
		}
		if nu <= 0 {
			// Patterns with zero-share footprints (pure streams) still
			// stream through at least a line's worth of cache.
			nu = 1 / f.saved[li].L
		}
		ev.lp[li] = f.saved[li].Scaled(nu)
	}
}

// maxMerge folds one level of the current state (one finished ⊙ child)
// into the frame's merged accumulator: after ⊙ the cache holds a
// fraction of each region proportional to its pattern's share, the
// larger one for a region in both rows. Sibling states mostly hold the
// same regions, so the common prefix is merged in place first; the
// rest — both rows are sorted by index — is counted in one pass and
// merged in place from the back in a second.
func (ev *evaluator) maxMerge(f *frame, li int) {
	st, m := ev.state[li], f.merged[li]
	if len(m) == 0 {
		f.merged[li] = append(m, st...)
		return
	}
	p := 0
	for p < len(m) && p < len(st) && m[p].reg == st[p].reg {
		maxInto(&m[p], &st[p])
		p++
	}
	n := len(m) + len(st) - p
	for i, j := p, p; i < len(m) && j < len(st); {
		switch {
		case m[i].reg < st[j].reg:
			i++
		case m[i].reg > st[j].reg:
			j++
		default:
			n--
			i++
			j++
		}
	}
	i, j := len(m)-1, len(st)-1
	m = slices.Grow(m, n-len(m))[:n]
	for k := n - 1; j >= p; k-- {
		switch {
		case i >= p && m[i].reg > st[j].reg:
			m[k] = m[i]
			i--
		case i >= p && m[i].reg == st[j].reg:
			if k != i {
				m[k] = m[i]
			}
			maxInto(&m[k], &st[j])
			i--
			j--
		default:
			m[k] = st[j]
			j--
		}
	}
	f.merged[li] = m
}

// maxInto raises dst to src's fraction if src holds more of the same
// region. Only rho and key differ between the two; positive floats
// order like their bits, so the choice is made with conditional moves,
// not a branch on data.
func maxInto(dst, src *entry) {
	r, key := math.Float64bits(dst.rho), math.Float64bits(dst.key)
	sr, skey := math.Float64bits(src.rho), math.Float64bits(src.key)
	if sr > r {
		r, key = sr, skey
	}
	dst.rho, dst.key = math.Float64frombits(r), math.Float64frombits(key)
}

// evalBasic executes one basic-pattern instruction at one level:
// Eq. 5.1 state adjustment around the Section-4 cold count, miss
// accumulation, then the state merge. t is the template span of the
// instruction's region, reg its table row.
func (ev *evaluator) evalBasic(in *instr, t *span, reg *RegionInfo, li int) {
	lv := ev.lp[li]
	u := float64(in.U)

	// One pass over the row finds the effective resident fraction —
	// the region's own entry, or an ancestor's (a resident parent
	// implies resident sub-regions) — and the resident bytes of the
	// entries unrelated to the region, which a merge keeps.
	var rho, oldBytes float64
	for i := range ev.state[li] {
		e := &ev.state[li][i]
		if e.related(t) {
			if e.pre <= t.pre { // ancestor-or-self
				rho = max(rho, e.rho)
			}
			continue
		}
		oldBytes += e.key
	}

	var mi Misses
	if rho < 1 {
		mi = coldMisses(in, lv, reg, u)
		if rho > 0 {
			if in.Op == opRAcc {
				if lines := costmath.RAccLines(lv, reg.N, reg.W, u, in.A); lines > lv.L {
					// r_acc over an oversized hot set: prior residency
					// only saves (part of) the compulsory first-touch
					// misses of the ℓ distinct lines.
					mi.Rnd -= rho * lines
					if mi.Rnd < 0 {
						mi.Rnd = 0
					}
				} else {
					mi = mi.Scale(1 - rho)
				}
			} else if isRandomOp(in) {
				// Eq. 5.1: each access finds its line resident with
				// probability rho.
				mi = mi.Scale(1 - rho)
			}
			// Sequential patterns get no benefit from an unknown
			// resident fraction (it would help only as the region head).
		}
	}
	ev.miss[li] = ev.miss[li].Add(mi)

	// Result state: the fraction of the region that fits the
	// (possibly scaled) cache, merged over what survives beside it.
	if t.size > 0 {
		rhoNew := lv.C / t.size
		if rhoNew > 1 {
			rhoNew = 1
		}
		ev.mergeBasic(li, lv, t, rhoNew, oldBytes)
	} else {
		ev.mergeEmpty(li, lv)
	}
}

// coldMisses dispatches a basic instruction to its Section-4 formula.
func coldMisses(in *instr, lv costmath.Level, reg *RegionInfo, u float64) Misses {
	switch in.Op {
	case opSTrav:
		return costmath.Classify(costmath.STravCount(lv, reg.N, reg.W, u), !in.NoSeq)
	case opRSTrav:
		m0 := costmath.STravCount(lv, reg.N, reg.W, u)
		return costmath.Classify(costmath.RSTravCount(lv, m0, in.A, in.Dir), !in.NoSeq)
	case opRTrav:
		return Misses{Rnd: costmath.RTravCount(lv, reg.N, reg.W, u)}
	case opRRTrav:
		m0 := costmath.RTravCount(lv, reg.N, reg.W, u)
		return Misses{Rnd: costmath.RRTravCount(lv, m0, in.A)}
	case opRAcc:
		return Misses{Rnd: costmath.RAccCount(lv, reg.N, reg.W, u, in.A)}
	case opNest:
		return costmath.NestCounts(lv, reg.N, reg.W, u, in.M, in.Inner, in.A, in.Order, in.NoSeq)
	}
	panic("costir: coldMisses on non-basic instruction")
}

// isRandomOp reports whether Eq. 5.1 grants the instruction partial
// benefit from a partially resident region.
func isRandomOp(in *instr) bool {
	switch in.Op {
	case opRTrav, opRRTrav, opRAcc:
		return true
	case opNest:
		return in.Inner != pattern.InnerSTrav
	}
	return false
}

// mergeBasic merges the single-region state a basic pattern leaves
// behind (region t at rhoNew) with the previous row contents,
// mirroring the tree walker's mergeState: earlier regions survive as
// long as the new resident bytes leave room, scaled down
// proportionally otherwise; entries overlapping the new region (same
// identity, an ancestor or a descendant) are superseded. oldBytes is
// the resident bytes of the entries that are not superseded.
func (ev *evaluator) mergeBasic(li int, lv costmath.Level, t *span, rhoNew, oldBytes float64) {
	newBytes := rhoNew * t.size
	avail := lv.C - newBytes
	if avail <= 0 || oldBytes <= 0 {
		ev.state[li] = append(ev.state[li][:0], entry{span: *t, rho: rhoNew, key: newBytes})
		return
	}
	scale := 1.0
	if oldBytes > avail {
		scale = avail / oldBytes
	}
	// Rescale the survivors in place, remembering where the new
	// region's entry goes in index order.
	row := ev.state[li]
	w, at := 0, 0
	for i := range row {
		e := &row[i]
		if e.related(t) {
			continue
		}
		if g := e.rho * scale; g > 1e-9 {
			// Move the entry before writing its new fraction: copying
			// a just-written entry would stall on store forwarding.
			key := g * e.size
			if w != i {
				row[w] = *e
			}
			row[w].rho, row[w].key = g, key
			w++
			if e.reg < t.reg {
				at = w
			}
		}
	}
	row = append(row[:w], entry{})
	copy(row[at+1:], row[at:w])
	row[at] = entry{span: *t, rho: rhoNew, key: newBytes}
	ev.state[li] = row
	ev.boundRow(li)
}

// mergeEmpty merges an empty result state (a zero-size region leaves
// nothing behind): previous contents are rescaled to the capacity.
func (ev *evaluator) mergeEmpty(li int, lv costmath.Level) {
	row := ev.state[li]
	var oldBytes float64
	for i := range row {
		oldBytes += row[i].key
	}
	if oldBytes <= 0 {
		ev.state[li] = row[:0]
		return
	}
	scale := 1.0
	if oldBytes > lv.C {
		scale = lv.C / oldBytes
	}
	w := 0
	for i := range row {
		if g := row[i].rho * scale; g > 1e-9 {
			key := g * row[i].size
			row[w] = row[i]
			row[w].rho, row[w].key = g, key
			w++
		}
	}
	ev.state[li] = row[:w]
	ev.boundRow(li)
}

// concMerge finishes one level of a ⊙ group: the max-merged child
// states supersede the entry state, and entry-state entries unrelated
// to any merged region survive in the room the merged bytes leave.
func (ev *evaluator) concMerge(f *frame, li int) {
	lv := f.saved[li]
	mrg := f.merged[li]
	var newBytes float64
	for i := range mrg {
		newBytes += mrg[i].key
	}
	avail := lv.C - newBytes
	if avail <= 0 {
		ev.state[li] = append(ev.state[li][:0], mrg...)
		return
	}
	// An entry of the entry state survives only if it is unrelated to
	// every merged region. Both rows are sorted by index, so one
	// two-pointer pass drops the entries the merged row holds itself;
	// only the rest (one or two per group, typically) are tested
	// against the merged entries' intervals.
	surv := ev.surv[:0]
	var oldBytes float64
	i := 0
	for k := range f.snap[li] {
		e := &f.snap[li][k]
		for i < len(mrg) && mrg[i].reg < e.reg {
			i++
		}
		if i < len(mrg) && mrg[i].reg == e.reg || relatedToAny(&e.span, mrg) {
			continue
		}
		surv = append(surv, *e)
		oldBytes += e.key
	}
	ev.surv = surv
	if oldBytes <= 0 {
		ev.state[li] = append(ev.state[li][:0], mrg...)
		return
	}
	scale := 1.0
	if oldBytes > avail {
		scale = avail / oldBytes
	}
	// Survivors and merged entries are disjoint and both sorted by
	// index: interleave them into the new state.
	st := ev.state[li][:0]
	i = 0
	for k := range surv {
		e := &surv[k]
		if g := e.rho * scale; g > 1e-9 {
			key := g * e.size
			j := i
			for j < len(mrg) && mrg[j].reg < e.reg {
				j++
			}
			st = append(append(st, mrg[i:j]...), *e)
			st[len(st)-1].rho, st[len(st)-1].key = g, key
			i = j
		}
	}
	ev.state[li] = append(st, mrg[i:]...)
	ev.boundRow(li)
}

// relatedToAny reports whether region s is related to any entry of row.
func relatedToAny(s *span, row []entry) bool {
	for i := range row {
		if row[i].related(s) {
			return true
		}
	}
	return false
}

// maxScanDrop is the largest overflow boundRow resolves by one scan
// instead of a sort.
const maxScanDrop = 4

// boundRow enforces maxStateEntries, keeping the entries that rank
// highest in the retention order (keepsBefore), exactly like the tree
// walker's boundState.
func (ev *evaluator) boundRow(li int) {
	row := ev.state[li]
	k := len(row) - maxStateEntries
	if k <= 0 {
		return
	}
	if k > maxScanDrop {
		// A large overflow (rare: a ⊙ merge of many disjoint children)
		// keeps every entry ranked above the k-th lowest.
		srt := append(ev.surv[:0], row...)
		slices.SortFunc(srt, func(a, b entry) int {
			switch {
			case a.reg == b.reg:
				return 0
			case keepsBefore(&b, &a):
				return -1 // a is dropped before b
			}
			return 1
		})
		ev.surv = srt
		drop := srt[k-1]
		w := 0
		for i := range row {
			if keepsBefore(&row[i], &drop) {
				row[w] = row[i]
				w++
			}
		}
		ev.state[li] = row[:w]
		return
	}
	// The common case — a merge pushed the row a few entries over the
	// bound — finds the k lowest-ranked entries in one pass, keeping
	// the positions of the k lowest seen so far, best first: past the
	// first k entries, that costs one comparison per entry.
	var buf [maxScanDrop]int32
	worst := buf[:0]
	for i := range row {
		e := &row[i]
		if len(worst) == k {
			if !keepsBefore(&row[worst[0]], e) {
				continue
			}
			worst = worst[:copy(worst, worst[1:])]
		}
		at := len(worst)
		for at > 0 && keepsBefore(e, &row[worst[at-1]]) {
			at--
		}
		worst = worst[:len(worst)+1]
		copy(worst[at+1:], worst[at:])
		worst[at] = int32(i)
	}
	// Cut the dropped positions out, in index order.
	slices.Sort(worst)
	w := int(worst[0])
	for j, d := range worst {
		next := len(row)
		if j+1 < len(worst) {
			next = int(worst[j+1])
		}
		w += copy(row[w:], row[d+1:next])
	}
	ev.state[li] = row[:w]
}
