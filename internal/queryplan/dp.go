package queryplan

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/region"
)

// The two-phase DP optimizer (phase 1 lives here). Phase 1 runs a
// dynamic program over the connected subgraphs of the join graph
// (DPccp-style, bushy trees allowed, cross-product-free): a memo table
// keyed by relation subset holds, per subset, the top-k subplans ranked
// by a context-free cost bound — every operator of the subplan priced
// in isolation against a cold cache, summed. The bound has to be
// context-free because the paper's Eq. 5.2 threads cache state through
// the ⊕ sequence, which makes a subplan's exact cost depend on
// everything that ran before it; pricing each operator as if it ran
// alone is the pruning metric, not the final answer. Phase 2 (Rank,
// rank.go) re-costs every surviving full plan exactly as it costs the
// exhaustive test oracle's plans — one ⊕-sequenced compound pattern,
// paper-faithful IR evaluation — so final rankings remain
// bit-compatible with the algebra.
//
// The memo is built for an optimizer's inner loop (docs/optimizer.md):
//
//   - Subplans live inline in per-subset slabs of plain structs (child
//     links are (subset, slot) indices, not pointers); *Plan trees are
//     materialized only for the full set's survivors, so the memo
//     allocates O(subsets × k) structs instead of one heap node per
//     candidate.
//   - The memo itself is a dense table indexed by subset bitmask — no
//     hashing on the hot path.
//   - The cost bound is priced from interned operator-step geometries:
//     each primitive step (sort, merge, hash join, partition, …) is
//     lowered, compiled and cold-evaluated once per distinct geometry
//     across the whole search, and compound operators price as sums of
//     interned steps — a partitioned hash join prices its m symmetric
//     cluster joins as one interned eval, not m.
//   - Phase 1 is parallelized across subset-size strata: every size-k
//     subset reads only finalized entries of sizes < k, so a bounded
//     worker pool per stratum is race-free by construction, and
//     per-subset insertion counters keep tie-breaking independent of
//     goroutine scheduling — results are bit-identical at every
//     Parallelism setting.
//
// docs/optimizer.md discusses why the bound is safe-ish and how the
// exhaustive oracle test bounds the risk.

// SearchStrategy names the plan-space search engine. SearchDP is the
// only one; callers may spell it or leave SearchOptions.Strategy empty.
type SearchStrategy string

// SearchDP is the memoized dynamic-programming search over connected
// subgraphs (handles up to MaxRelations).
const SearchDP SearchStrategy = "dp"

// SearchOptions tune the plan-space search. The zero value means the
// DP search with DefaultTopK, bushy trees enabled, and one memo worker
// per available CPU.
type SearchOptions struct {
	// Strategy must be "" or SearchDP; anything else is an error.
	Strategy SearchStrategy
	// TopK bounds the subplans kept per memo bucket in the DP search
	// (pruned by the context-free cost bound). 0 means DefaultTopK;
	// negative disables pruning entirely (every subplan survives — the
	// configuration the exhaustive-oracle parity test runs).
	TopK int
	// LeftDeepOnly restricts the DP search to left-deep join trees
	// (bushy off), matching the exhaustive test oracle's plan space.
	LeftDeepOnly bool
	// Parallelism bounds the worker pool that builds each subset-size
	// stratum of the DP memo. 0 means GOMAXPROCS, 1 runs
	// single-threaded, negative is clamped to 1. The search result is
	// bit-identical at every setting — tie-breaking never depends on
	// goroutine scheduling (see docs/optimizer.md).
	Parallelism int
}

// DefaultTopK is the per-bucket memo width used when TopK is 0.
const DefaultTopK = 3

// topK and parallelism return the effective knob values.
func (so SearchOptions) topK() int {
	switch {
	case so.TopK == 0:
		return DefaultTopK
	case so.TopK < 0:
		return math.MaxInt
	}
	return so.TopK
}

func (so SearchOptions) parallelism() int {
	if so.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if so.Parallelism < 1 {
		return 1
	}
	return so.Parallelism
}

// ---------------------------------------------------------------------
// Interned operator-step pricing (the context-free cost bound).

// stepKey is the geometry of one operator step (ops.go) — everything
// its cold cost depends on: the cardinality and width of each operand
// in the step's argument order (zero past its arity), and m, the
// partition fan-out or the projection's bytes-used.
type stepKey struct {
	kind stepKind
	m    int64
	n, w [3]int64
}

// bounder prices the context-free cost bound: step costs interned by
// geometry across every search in the process (see stepCache), operator
// costs interned per search on top (a join operator's geometry includes
// sortedness and algorithm, which select its steps). Both tables are
// shared by every memo worker; the values are pure functions of their
// keys, so concurrent duplicate computation is benign and the cached
// values are scheduling-independent.
type bounder struct {
	hier  *hardware.Hierarchy
	prune int64
	cpu   CPUCosts

	// env fingerprints everything besides the step geometry that a step
	// cost depends on, making cached costs shareable across searches.
	env envKey

	opMu sync.RWMutex
	ops  map[opKey]float64
}

// envKey is the pricing environment of a search: the hardware hierarchy
// (fingerprinted by its level parameters), the sort-recursion prune
// bound, and the CPU cost constants.
type envKey struct {
	hw    string
	prune int64
	cpu   CPUCosts
}

// stepCache interns step costs process-wide, keyed by (environment,
// geometry). A serving process prices a stream of queries against the
// same one or two hardware profiles, and distinct queries over one
// catalog share most operator geometries, so steady-state searches hit
// this table for nearly every bound. Entries are pure functions of
// their key (a cold IR evaluation), so sharing them across goroutines
// and searches cannot change any result. The count cap is a safety
// valve for adversarial geometry streams: past it, costs are computed
// uncached rather than evicted, keeping behavior simple and
// deterministic.
var (
	stepCache     sync.Map // stepCacheKey -> float64
	stepCacheSize atomic.Int64
)

const maxStepCacheEntries = 1 << 20

type stepCacheKey struct {
	env  envKey
	step stepKey
}

// ResetStepCache empties the process-global step-cost cache. Cached
// entries are pure functions of their keys, so the only observable
// effect is timing — benchmarks call this to measure a cold search
// after earlier runs have already interned every geometry.
func ResetStepCache() {
	stepCache.Range(func(k, _ any) bool {
		stepCache.Delete(k)
		return true
	})
	stepCacheSize.Store(0)
}

// opKey is the geometry of one join operator — everything its bound
// (selected steps + CPU estimate) depends on.
type opKey struct {
	alg        Algorithm
	fanout     int64
	n1, w1     int64
	sorted1    bool
	n2, w2     int64
	sorted2    bool
	nOut, wOut int64
}

func newBounder(hier *hardware.Hierarchy, prune int64, cpu CPUCosts) *bounder {
	return &bounder{
		hier:  hier,
		prune: prune,
		cpu:   cpu,
		env:   envKey{hw: hier.Fingerprint(), prune: prune, cpu: cpu},
		ops:   make(map[opKey]float64),
	}
}

// step returns the interned cold cost of one operator step. Its
// pattern is built only on a cache miss, over placeholder regions: a
// step is always evaluated in isolation, so only geometry (and
// intra-step pointer identity, which the engine builders preserve)
// matters.
func (b *bounder) step(k stepKey) (float64, error) {
	ck := stepCacheKey{env: b.env, step: k}
	if c, ok := stepCache.Load(ck); ok {
		return c.(float64), nil
	}
	var r [3]*region.Region
	names := k.kind.placeholders()
	for i := 0; i < k.kind.arity(); i++ {
		r[i] = region.New(names[i], k.n[i], k.w[i])
	}
	prog, err := costir.Compile(sequence(k.kind.emit(nil, r, k.m, b.prune)))
	if err != nil {
		return 0, err
	}
	c := prog.MemoryTimeNS(b.hier)
	if stepCacheSize.Load() < maxStepCacheEntries {
		if _, loaded := stepCache.LoadOrStore(ck, c); !loaded {
			stepCacheSize.Add(1)
		}
	}
	return c, nil
}

// operandGeom is one operand's geometry as the bound sees it.
type operandGeom struct {
	n, w   int64
	sorted bool
}

// opCost prices one operator in isolation: each of its steps the
// operator table lists (ops.go), skipping sorts of key-ordered inputs,
// cold-evaluated and interned by geometry, plus the step's CPU term —
// the additive, context-free decomposition that keeps phase 1 linear in
// distinct step geometries. g holds each slot's geometry; m is the
// join's fan-out or the scan's bytes-used.
func (b *bounder) opCost(steps []step, g *[numSlots]operandGeom, m int64) (float64, error) {
	var mem, cpu float64
	for _, s := range steps {
		if s.unlessSorted && g[s.args[0]].sorted {
			continue
		}
		k := stepKey{kind: s.kind, m: m}
		var n [3]float64
		for i := 0; i < s.kind.arity(); i++ {
			o := g[s.args[i]]
			k.n[i], k.w[i], n[i] = o.n, o.w, float64(o.n)
		}
		c, err := b.step(k)
		if err != nil {
			return 0, err
		}
		mem += c
		cpu += s.kind.cpu(b.cpu, n)
	}
	return mem + cpu, nil
}

// joinBound prices one join operator in isolation (opCost). The
// per-operator result is interned too, so the common case is one map
// hit.
func (b *bounder) joinBound(k opKey) (float64, error) {
	b.opMu.RLock()
	c, ok := b.ops[k]
	b.opMu.RUnlock()
	if ok {
		return c, nil
	}
	i, err := operatorOf(OpJoin, k.alg)
	if err != nil {
		return 0, err
	}
	g := [numSlots]operandGeom{
		slotLeft:  {k.n1, k.w1, k.sorted1},
		slotRight: {k.n2, k.w2, k.sorted2},
		slotOut:   {n: k.nOut, w: k.wOut},
	}
	fillBuildProbe(&g, k.n1, k.n2)
	if c, err = b.opCost(operators[i].steps, &g, k.fanout); err != nil {
		return 0, err
	}
	b.opMu.Lock()
	b.ops[k] = c
	b.opMu.Unlock()
	return c, nil
}

// leafBound prices a scan leaf's own materialization step. A bare
// unfiltered scan contributes no step of its own (its consumer reads
// the base region directly), so it bounds to zero; a filtered or
// projecting scan is priced cold like any other step.
func (b *bounder) leafBound(leaf *Plan) (float64, error) {
	if leaf.Filter >= 1 && leaf.Proj <= 0 {
		return 0, nil
	}
	g := [numSlots]operandGeom{
		slotLeft: {n: leaf.Rel.Tuples, w: leaf.Rel.Width},
		slotOut:  {n: leaf.Out.Tuples, w: leaf.Out.Width},
	}
	return b.opCost([]step{scanStep}, &g, leaf.Proj)
}

// ---------------------------------------------------------------------
// The dense, arena-style memo.

// cand is one memoized subplan, stored inline in its subset's slab: the
// node payload (algorithm, child references, output geometry) plus its
// context-free bound and the per-subset insertion number that breaks
// bound ties deterministically. Child references point into finalized
// smaller subsets, so they stay valid while this subset's slab is
// compacted.
type cand struct {
	bound float64
	// seq is the subset-local insertion number — the deterministic
	// tie-break that keeps memo pruning and final ordering stable and
	// independent of which worker built which subset.
	seq         int32
	alg         int8 // index into the operator table; algLeaf for scan leaves
	fanout      int32
	left, right subRef
	outN, outW  int64
	outSorted   bool
	rel         int32 // relation index of a scan leaf
}

// algLeaf marks a scan-leaf candidate.
const algLeaf = int8(-1)

// subRef addresses one candidate: the subset's bitmask plus a slot
// packing (bucket index, class) as idx*2 + class.
type subRef struct {
	mask uint32
	slot int32
}

// memoEntry holds one subset's surviving subplans, split by output
// order (the classic "interesting orders" refinement): a sorted-output
// subplan can lose on the context-free bound yet win the full query by
// feeding a downstream merge join, sort-aggregate or order-by for free,
// so each order class keeps its own top-k. ranked is the finalized
// merge of both classes, cheapest bound first — computed once when the
// subset's stratum completes, then read-only for every larger subset.
type memoEntry struct {
	buckets [2][]cand // [0] unsorted output, [1] sorted output
	ranked  []int32   // slots, cheapest (bound, seq) first
	seq     int32
}

func (m *memoEntry) at(slot int32) *cand { return &m.buckets[slot&1][slot>>1] }

// dp carries the state of one phase-1 run.
type dp struct {
	q    Query
	opts Options
	b    *bounder
	topK int
	par  int
	full uint32
	// leftDeep restricts joins to a single relation on the right side.
	leftDeep bool
	// adj[i] is the bitmask of relations sharing a join edge with i.
	adj []uint32
	// memo[s] holds the surviving subplans for relation subset s — a
	// dense table indexed by bitmask, so only connected subsets ever
	// become non-empty: singletons are seeded directly, and a larger
	// subset gains plans only from a split into two non-empty (hence
	// connected) halves bridged by a join edge — connectivity propagates
	// inductively and cross products are never built.
	memo []memoEntry
}

// Search expands a query into physical plan trees with the DP search —
// phase 1: build the memo bottom-up across subset-size strata (in
// parallel when allowed), then materialize the full set's survivors as
// *Plan trees and expand them with the aggregate / distinct / order-by
// variants exactly as the exhaustive enumerator does. The pruning
// bounds are priced on hier, which must be non-nil. Rank scores the
// result — that exact re-cost is phase 2.
func Search(q Query, opts Options, hier *hardware.Hierarchy) ([]*Plan, error) {
	so := opts.Search
	if so.Strategy != "" && so.Strategy != SearchDP {
		return nil, fmt.Errorf("queryplan: unknown search strategy %q (want %q)", so.Strategy, SearchDP)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("queryplan: DP search needs a hardware hierarchy to price its context-free cost bounds (pass one to Search)")
	}
	opts = opts.normalized()
	n := len(q.Relations)

	d := &dp{
		q:        q,
		opts:     opts,
		b:        newBounder(hier, opts.PruneBytes, opts.CPU),
		topK:     so.topK(),
		par:      so.parallelism(),
		full:     uint32(1)<<n - 1,
		leftDeep: so.LeftDeepOnly,
		adj:      adjacency(q),
		memo:     make([]memoEntry, uint32(1)<<n),
	}
	for i := 0; i < n; i++ {
		leaf := q.scanPlan(i)
		bound, err := d.b.leafBound(leaf)
		if err != nil {
			return nil, err
		}
		entry := &d.memo[uint32(1)<<i]
		entry.insert(cand{
			bound: bound, alg: algLeaf, rel: int32(i),
			outN: leaf.Out.Tuples, outW: leaf.Out.Width, outSorted: leaf.Out.Sorted,
		}, d.topK)
		entry.finalize(d.topK)
	}
	if err := d.runStrata(n); err != nil {
		return nil, err
	}

	plans := d.materialize()
	if q.GroupBy > 0 {
		plans = aggVariants(plans, OpAggregate, q.GroupBy)
	}
	if q.Distinct > 0 {
		plans = aggVariants(plans, OpDistinct, q.Distinct)
	}
	if q.SortBy {
		plans = sortVariants(plans)
	}
	// A negative TopK is an explicit "give me everything" oracle run, so
	// the cap — a guard against unintentionally unbounded plan lists —
	// does not apply.
	if so.TopK >= 0 && len(plans) > opts.MaxPlans {
		return nil, fmt.Errorf("queryplan: %d candidate plans exceed the cap of %d (shrink TopK or raise Options.MaxPlans)",
			len(plans), opts.MaxPlans)
	}
	return plans, nil
}

// runStrata drives the dynamic program one subset size at a time. Every
// size-k subset reads only finalized entries of sizes < k and writes
// only its own memo slot, so the subsets of one stratum are independent
// — a bounded worker pool drains each stratum, with a plain atomic
// cursor handing out subsets. Determinism does not depend on the
// schedule: each subset's candidates, pruning and ranking are computed
// from finalized smaller strata and subset-local counters only.
func (d *dp) runStrata(n int) error {
	bySize := make([][]uint32, n+1)
	for s := uint32(3); s <= d.full; s++ {
		if k := bits.OnesCount32(s); k >= 2 {
			bySize[k] = append(bySize[k], s)
		}
	}
	for k := 2; k <= n; k++ {
		subs := bySize[k]
		workers := d.par
		if workers > len(subs) {
			workers = len(subs)
		}
		if workers <= 1 {
			for _, s := range subs {
				if err := d.buildSubset(s); err != nil {
					return err
				}
			}
			continue
		}
		var (
			next     atomic.Int64
			failed   atomic.Bool
			errOnce  sync.Once
			firstErr error
			wg       sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !failed.Load() {
					i := next.Add(1) - 1
					if i >= int64(len(subs)) {
						return
					}
					if err := d.buildSubset(subs[i]); err != nil {
						errOnce.Do(func() { firstErr = err })
						failed.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
		if failed.Load() {
			return firstErr
		}
	}
	return nil
}

// buildSubset fills memo[s] from every (S1, S2) split of s: both halves
// connected (non-empty memo), joined by at least one edge, every
// surviving subplan pair, every applicable join algorithm. Ordered
// pairs are enumerated with S1 ascending, which makes the left-deep
// restriction of the DP search visit extensions in the same relation
// order as the exhaustive enumerator.
func (d *dp) buildSubset(s uint32) error {
	entry := &d.memo[s]
	// (s1-s)&s enumerates the proper non-empty submasks of s in
	// ascending numeric order without allocating.
	for s1 := (0 - s) & s; s1 != s; s1 = (s1 - s) & s {
		s2 := s ^ s1
		if d.leftDeep && bits.OnesCount32(s2) != 1 {
			continue
		}
		e1, e2 := &d.memo[s1], &d.memo[s2]
		if len(e1.ranked) == 0 || len(e2.ranked) == 0 || !d.crossEdge(s1, s2) {
			continue
		}
		for _, sl1 := range e1.ranked {
			c1 := e1.at(sl1)
			r1 := subRef{mask: s1, slot: sl1}
			for _, sl2 := range e2.ranked {
				c2 := e2.at(sl2)
				outN, outW := d.q.joinEstimate(c1.outN, c1.outW, c2.outN, c2.outW, s1, s2)
				if err := d.addJoins(entry, r1, c1, subRef{mask: s2, slot: sl2}, c2, outN, outW); err != nil {
					return err
				}
			}
		}
	}
	entry.finalize(d.topK)
	return nil
}

// addJoins files one join candidate per applicable algorithm — the same
// inventory, eligibility rules and emission order as the exhaustive
// enumerator's joinNodes.
func (d *dp) addJoins(entry *memoEntry, r1 subRef, c1 *cand, r2 subRef, c2 *cand, outN, outW int64) error {
	nl, nr := c1.outN, c2.outN
	childBound := c1.bound + c2.bound
	emit := func(alg Algorithm, fanout int64) error {
		i, err := operatorOf(OpJoin, alg)
		if err != nil {
			return err
		}
		op, err := d.b.joinBound(opKey{
			alg: alg, fanout: fanout,
			n1: nl, w1: c1.outW, sorted1: c1.outSorted,
			n2: nr, w2: c2.outW, sorted2: c2.outSorted,
			nOut: outN, wOut: outW,
		})
		if err != nil {
			return err
		}
		entry.insert(cand{
			bound: childBound + op,
			alg:   i, fanout: int32(fanout),
			left: r1, right: r2,
			outN: outN, outW: outW, outSorted: operators[i].outSorted(c1.outSorted),
		}, d.topK)
		return nil
	}

	if err := emit(mergeAlgorithm(c1.outSorted, c2.outSorted), 0); err != nil {
		return err
	}
	if err := emit(HashJoin, 0); err != nil {
		return err
	}
	for _, m := range d.opts.Fanouts {
		if !partitionable(m, nl, nr) {
			continue
		}
		if err := emit(PartitionedHashJoin, m); err != nil {
			return err
		}
	}
	if d.opts.NLJMaxInner > 0 && (nl <= d.opts.NLJMaxInner || nr <= d.opts.NLJMaxInner) {
		if err := emit(NestedLoopJoin, 0); err != nil {
			return err
		}
	}
	return nil
}

// insert files a candidate into its order-class bucket, compacting the
// bucket back to the top-k whenever it doubles — online top-k selection
// is prefix-composable (an element dropped here had k
// better-or-equal-and-earlier entries, which only ever get displaced by
// still better ones), so mid-stream compaction yields exactly the same
// survivors as pruning once at the end while keeping memo memory
// O(subsets × k) instead of O(candidates).
func (m *memoEntry) insert(c cand, topK int) {
	c.seq = m.seq
	m.seq++
	bucket := &m.buckets[0]
	if c.outSorted {
		bucket = &m.buckets[1]
	}
	*bucket = append(*bucket, c)
	if topK < math.MaxInt/2 && len(*bucket) >= 2*topK+16 {
		*bucket = cutTopK(*bucket, topK)
	}
}

// cutTopK sorts a bucket by (bound, insertion order) and truncates it
// to k entries. The stable sort preserves insertion order among equal
// bounds, so the cut is deterministic.
func cutTopK(b []cand, k int) []cand {
	sort.SliceStable(b, func(i, j int) bool { return b[i].bound < b[j].bound })
	if len(b) > k {
		b = b[:k]
	}
	return b
}

// finalize prunes both order-class buckets to the top-k and computes
// the entry's cross-class ranking once, cheapest (bound, seq) first.
// After finalize the entry is read-only — every larger subset iterates
// the precomputed ranking instead of re-sorting per split.
func (m *memoEntry) finalize(topK int) {
	if topK < math.MaxInt/2 {
		m.buckets[0] = cutTopK(m.buckets[0], topK)
		m.buckets[1] = cutTopK(m.buckets[1], topK)
	} else {
		// Pruning disabled (the oracle configuration): order each bucket
		// without truncating.
		m.buckets[0] = cutTopK(m.buckets[0], len(m.buckets[0]))
		m.buckets[1] = cutTopK(m.buckets[1], len(m.buckets[1]))
	}
	n := len(m.buckets[0]) + len(m.buckets[1])
	if n == 0 {
		return
	}
	m.ranked = make([]int32, 0, n)
	for cls := int32(0); cls < 2; cls++ {
		for i := range m.buckets[cls] {
			m.ranked = append(m.ranked, int32(i)<<1|cls)
		}
	}
	sort.SliceStable(m.ranked, func(i, j int) bool {
		a, b := m.at(m.ranked[i]), m.at(m.ranked[j])
		if a.bound != b.bound {
			return a.bound < b.bound
		}
		return a.seq < b.seq
	})
}

// materialize rebuilds *Plan trees for the full set's survivors — the
// only point where heap nodes are allocated. Shared subtrees are
// materialized once (the memo cache below), preserving the node sharing
// the pointer-based memo used to produce.
func (d *dp) materialize() []*Plan {
	ranked := d.memo[d.full].ranked
	cache := make(map[subRef]*Plan)
	plans := make([]*Plan, len(ranked))
	for i, slot := range ranked {
		plans[i] = d.materializeNode(subRef{mask: d.full, slot: slot}, cache)
	}
	return plans
}

func (d *dp) materializeNode(r subRef, cache map[subRef]*Plan) *Plan {
	if p, ok := cache[r]; ok {
		return p
	}
	c := d.memo[r.mask].at(r.slot)
	var p *Plan
	if c.alg == algLeaf {
		p = d.q.scanPlan(int(c.rel))
	} else {
		// Every join output is named by its relation subset (see
		// subsetName). The exhaustive enumerator's bare T%d names are
		// safe only because left-deep plans have one intermediate per
		// size; costs are unaffected either way (no collision under
		// either scheme for left-deep plans), which the parity harness
		// locks.
		p = &Plan{
			Kind:      OpJoin,
			Algorithm: operators[c.alg].alg,
			Fanout:    int64(c.fanout),
			Children:  []*Plan{d.materializeNode(c.left, cache), d.materializeNode(c.right, cache)},
			Out:       Relation{Name: subsetName(r.mask), Tuples: c.outN, Width: c.outW, Sorted: c.outSorted},
		}
	}
	cache[r] = p
	return p
}

// adjacency builds the per-relation neighbour bitmasks.
func adjacency(q Query) []uint32 {
	adj := make([]uint32, len(q.Relations))
	for _, e := range q.Joins {
		adj[e.Left] |= uint32(1) << e.Right
		adj[e.Right] |= uint32(1) << e.Left
	}
	return adj
}

// crossEdge reports whether any join edge bridges the two halves.
func (d *dp) crossEdge(s1, s2 uint32) bool {
	for f := s1; f != 0; f &= f - 1 {
		if d.adj[bits.TrailingZeros32(f)]&s2 != 0 {
			return true
		}
	}
	return false
}
