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
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
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
// rank.go) re-costs every surviving full plan exactly as the
// exhaustive path does — one ⊕-sequenced compound pattern,
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

// SearchStrategy selects the plan-space search engine.
type SearchStrategy string

const (
	// SearchDP is the memoized dynamic-programming search over
	// connected subgraphs (the default; handles up to MaxRelations).
	SearchDP SearchStrategy = "dp"
	// SearchExhaustive is the exhaustive left-deep enumerator — the
	// complete-but-factorial test oracle for small queries.
	SearchExhaustive SearchStrategy = "exhaustive"
)

// SearchOptions tune the plan-space search. The zero value means the
// DP search with DefaultTopK, bushy trees enabled, and one memo worker
// per available CPU.
type SearchOptions struct {
	// Strategy picks the engine; "" means SearchDP.
	Strategy SearchStrategy
	// TopK bounds the subplans kept per memo bucket in the DP search
	// (pruned by the context-free cost bound). 0 means DefaultTopK;
	// negative disables pruning entirely (every subplan survives — the
	// configuration the exhaustive-oracle parity test runs).
	TopK int
	// LeftDeepOnly restricts the DP search to left-deep join trees
	// (bushy off), matching the exhaustive enumerator's plan space.
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

// normalized resolves defaults; topK and parallelism return the
// effective knob values.
func (so SearchOptions) normalized() SearchOptions {
	if so.Strategy == "" {
		so.Strategy = SearchDP
	}
	return so
}

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

// Search expands a query into physical plan trees with the configured
// strategy (opts.Search). SearchDP prices its pruning bounds on hier,
// which must be non-nil; SearchExhaustive ignores hier and delegates to
// Enumerate. Rank scores the result — that exact re-cost is phase 2 of
// the DP optimizer.
func Search(q Query, opts Options, hier *hardware.Hierarchy) ([]*Plan, error) {
	so := opts.Search.normalized()
	switch so.Strategy {
	case SearchExhaustive:
		return Enumerate(q, opts)
	case SearchDP:
		return dpSearch(q, opts, so, hier)
	default:
		return nil, fmt.Errorf("queryplan: unknown search strategy %q (want %q or %q)",
			so.Strategy, SearchDP, SearchExhaustive)
	}
}

// ---------------------------------------------------------------------
// Interned operator-step pricing (the context-free cost bound).

// stepKind discriminates the primitive operator steps the bound prices.
// Every step cost is the cold IR evaluation of the step's Table-2
// pattern plus nothing else; compound operators are priced as sums of
// steps.
type stepKind uint8

const (
	stepProject stepKind = iota // filtered/projecting scan: s_trav(U,u) ⊙ s_trav(W)
	stepSort                    // in-place quick-sort of one region
	stepMerge                   // merge join: three concurrent s_trav
	stepHash                    // hash join: build ⊕ probe (one unit, state threads inside)
	stepNLJ                     // nested-loop join
	stepPhj                     // whole partitioned hash join (partitions ⊕ clusters)
)

// stepKey is the geometry of one primitive step — everything its cold
// cost depends on. n3/w3 hold the output region where present; m holds
// the partition fan-out or the projection's bytes-used.
type stepKey struct {
	kind           stepKind
	m              int64
	n1, w1, n2, w2 int64
	n3, w3         int64
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

// step returns the interned cold cost of one primitive step.
func (b *bounder) step(k stepKey) (float64, error) {
	ck := stepCacheKey{env: b.env, step: k}
	if c, ok := stepCache.Load(ck); ok {
		return c.(float64), nil
	}
	prog, err := costir.Compile(b.stepPattern(k))
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

// stepPattern builds the step's Table-2 pattern from its geometry.
// Region names are fixed placeholders: a step is always evaluated in
// isolation, so only geometry (and intra-step pointer identity, which
// the engine builders preserve) matters.
func (b *bounder) stepPattern(k stepKey) pattern.Pattern {
	switch k.kind {
	case stepProject:
		return engine.ProjectPattern(region.New("i", k.n1, k.w1), region.New("o", k.n3, k.w3), k.m)
	case stepSort:
		return engine.QuickSortPattern(region.New("s", k.n1, k.w1), b.prune)
	case stepMerge:
		return engine.MergeJoinPattern(
			region.New("l", k.n1, k.w1), region.New("r", k.n2, k.w2), region.New("o", k.n3, k.w3))
	case stepHash:
		// n1/w1 is the probe side, n2/w2 the build side (callers decide).
		build := region.New("b", k.n2, k.w2)
		return engine.HashJoinPattern(
			region.New("p", k.n1, k.w1), build, engine.HashRegionFor("h", build.N),
			region.New("o", k.n3, k.w3))
	case stepNLJ:
		return engine.NestedLoopJoinPattern(
			region.New("l", k.n1, k.w1), region.New("r", k.n2, k.w2), region.New("o", k.n3, k.w3))
	case stepPhj:
		// Priced as one whole pattern: the Seq state threading across
		// partition passes and clusters (resident-parent discounts,
		// steady-state cluster effects) shifts the cost by up to ~10%
		// in either direction versus a per-step sum, enough to reorder
		// survivors, so this is the one compound the bound cannot
		// decompose. Sortedness is irrelevant to its cost, so the
		// geometry key keeps one entry per (m, inputs, output).
		return engine.PartitionedHashJoinPattern(
			region.New("u", k.n1, k.w1), region.New("v", k.n2, k.w2),
			region.New("o", k.n3, k.w3), k.m)
	default:
		panic(fmt.Sprintf("queryplan: unknown step kind %d", k.kind))
	}
}

// joinBound prices one join operator in isolation: its primitive steps
// cold-evaluated (each interned by geometry) plus the
// hardware-independent CPU estimate — the additive, context-free
// decomposition that keeps phase 1 linear in distinct step geometries.
// The per-operator result is interned too, so the common case is one
// map hit.
func (b *bounder) joinBound(k opKey) (float64, error) {
	b.opMu.RLock()
	c, ok := b.ops[k]
	b.opMu.RUnlock()
	if ok {
		return c, nil
	}
	mem, err := b.joinMem(k)
	if err != nil {
		return 0, err
	}
	c = mem + b.joinCPU(k)
	b.opMu.Lock()
	b.ops[k] = c
	b.opMu.Unlock()
	return c, nil
}

// joinMem sums the operator's cold step costs, mirroring the step list
// Plan.Lower emits for the same node.
func (b *bounder) joinMem(k opKey) (float64, error) {
	switch k.alg {
	case MergeJoin:
		return b.step(stepKey{kind: stepMerge, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
	case SortMergeJoin:
		var sum float64
		if !k.sorted1 {
			c, err := b.step(stepKey{kind: stepSort, n1: k.n1, w1: k.w1})
			if err != nil {
				return 0, err
			}
			sum += c
		}
		if !k.sorted2 {
			c, err := b.step(stepKey{kind: stepSort, n1: k.n2, w1: k.w2})
			if err != nil {
				return 0, err
			}
			sum += c
		}
		c, err := b.step(stepKey{kind: stepMerge, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
		if err != nil {
			return 0, err
		}
		return sum + c, nil
	case HashJoin:
		// Build on the smaller input, exactly as Plan.Lower does.
		np, wp, nb, wb := k.n1, k.w1, k.n2, k.w2
		if k.n1 < k.n2 {
			np, wp, nb, wb = k.n2, k.w2, k.n1, k.w1
		}
		return b.step(stepKey{kind: stepHash, n1: np, w1: wp, n2: nb, w2: wb, n3: k.nOut, w3: k.wOut})
	case PartitionedHashJoin:
		return b.step(stepKey{kind: stepPhj, m: k.fanout, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
	case NestedLoopJoin:
		return b.step(stepKey{kind: stepNLJ, n1: k.n1, w1: k.w1, n2: k.n2, w2: k.w2, n3: k.nOut, w3: k.wOut})
	default:
		return 0, fmt.Errorf("queryplan: unknown join algorithm %q", k.alg)
	}
}

// joinCPU mirrors the lowerer's per-algorithm CPU estimates (Eq. 6.1's
// hardware-independent component).
func (b *bounder) joinCPU(k opKey) float64 {
	nl, nr, no := float64(k.n1), float64(k.n2), float64(k.nOut)
	switch k.alg {
	case NestedLoopJoin:
		return b.cpu.Compare*nl*nr + b.cpu.Move*no
	case MergeJoin:
		return b.cpu.Compare*(nl+nr) + b.cpu.Move*no
	case SortMergeJoin:
		var cpu float64
		if !k.sorted1 {
			cpu += b.cpu.sortNS(nl)
		}
		if !k.sorted2 {
			cpu += b.cpu.sortNS(nr)
		}
		return cpu + b.cpu.Compare*(nl+nr) + b.cpu.Move*no
	case HashJoin:
		return b.cpu.Hash*(nl+nr) + b.cpu.Move*no
	case PartitionedHashJoin:
		return b.cpu.Partition*(nl+nr) + b.cpu.Hash*(nl+nr) + b.cpu.Move*no
	}
	return 0
}

// leafBound prices a scan leaf's own materialization step. A bare
// unfiltered scan contributes no step of its own (its consumer reads
// the base region directly), so it bounds to zero; a filtered or
// projecting scan is priced cold like any other step.
func (b *bounder) leafBound(leaf *Plan) (float64, error) {
	if leaf.Filter >= 1 && leaf.Proj <= 0 {
		return 0, nil
	}
	mem, err := b.step(stepKey{
		kind: stepProject, m: leaf.Proj,
		n1: leaf.Rel.Tuples, w1: leaf.Rel.Width,
		n3: leaf.Out.Tuples, w3: leaf.Out.Width,
	})
	if err != nil {
		return 0, err
	}
	return mem + b.cpu.Compare*float64(leaf.Rel.Tuples) + b.cpu.Move*float64(leaf.Out.Tuples), nil
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
	alg         int8 // index into joinAlgs; algLeaf for scan leaves
	fanout      int32
	left, right subRef
	outN, outW  int64
	outSorted   bool
	rel         int32 // relation index of a scan leaf
}

// algLeaf marks a scan-leaf candidate.
const algLeaf = int8(-1)

// joinAlgs maps the cand.alg index back to the algorithm inventory.
var joinAlgs = [...]Algorithm{
	MergeJoin, SortMergeJoin, HashJoin, PartitionedHashJoin, NestedLoopJoin,
}

func algIndex(a Algorithm) int8 {
	for i, x := range joinAlgs {
		if x == a {
			return int8(i)
		}
	}
	panic(fmt.Sprintf("queryplan: unknown join algorithm %q", a))
}

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
	e    *enumerator
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

// dpSearch is phase 1: build the memo bottom-up across subset-size
// strata (in parallel when allowed), then materialize the full set's
// survivors as *Plan trees and expand them with the aggregate /
// distinct / order-by variants exactly as the exhaustive enumerator
// does.
func dpSearch(q Query, opts Options, so SearchOptions, hier *hardware.Hierarchy) ([]*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("queryplan: DP search needs a hardware hierarchy to price its context-free cost bounds (pass one to Search, or use SearchExhaustive)")
	}
	opts = opts.normalized()
	e := enumerator{q: q, opts: opts}
	n := len(q.Relations)

	d := &dp{
		e:        &e,
		b:        newBounder(hier, opts.PruneBytes, opts.CPU),
		topK:     so.topK(),
		par:      so.parallelism(),
		full:     uint32(1)<<n - 1,
		leftDeep: so.LeftDeepOnly,
		adj:      adjacency(q),
		memo:     make([]memoEntry, uint32(1)<<n),
	}
	for i := 0; i < n; i++ {
		leaf := e.scanPlan(i)
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
		plans = e.aggVariants(plans, OpAggregate, q.GroupBy)
	}
	if q.Distinct > 0 {
		plans = e.aggVariants(plans, OpDistinct, q.Distinct)
	}
	if q.SortBy {
		plans = e.sortVariants(plans)
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
				outN, outW := d.pairGeometry(c1, c2, s1, s2)
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
	emit := func(alg Algorithm, fanout int64, sorted bool) error {
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
			alg:   algIndex(alg), fanout: int32(fanout),
			left: r1, right: r2,
			outN: outN, outW: outW, outSorted: sorted,
		}, d.topK)
		return nil
	}

	if c1.outSorted && c2.outSorted {
		// Both inputs already key-ordered: a sort-merge join would sort
		// nothing, so only the plain merge join is emitted.
		if err := emit(MergeJoin, 0, true); err != nil {
			return err
		}
	} else if err := emit(SortMergeJoin, 0, true); err != nil {
		return err
	}
	if err := emit(HashJoin, 0, false); err != nil {
		return err
	}
	for _, m := range d.e.opts.Fanouts {
		if m*8 > nl || m*8 > nr {
			continue // degenerate clusters
		}
		if err := emit(PartitionedHashJoin, m, false); err != nil {
			return err
		}
	}
	if d.e.opts.NLJMaxInner > 0 && (nl <= d.e.opts.NLJMaxInner || nr <= d.e.opts.NLJMaxInner) {
		// The outer relation's order survives a nested-loop join.
		if err := emit(NestedLoopJoin, 0, c1.outSorted); err != nil {
			return err
		}
	}
	return nil
}

// pairGeometry estimates the output of joining two memoized subplans:
// cardinalities multiplied and scaled by every edge bridging the two
// subsets, widths concatenated minus the shared key — the set-split
// generalization of the exhaustive enumerator's joinOutput, and
// identical to it (including the per-step rounding cascade) on
// left-deep splits.
func (d *dp) pairGeometry(c1, c2 *cand, s1, s2 uint32) (outN, outW int64) {
	card := float64(c1.outN) * float64(c2.outN)
	for _, edge := range d.e.q.Joins {
		l, r := uint32(1)<<edge.Left, uint32(1)<<edge.Right
		if (l&s1 != 0 && r&s2 != 0) || (l&s2 != 0 && r&s1 != 0) {
			card *= edge.Selectivity
		}
	}
	width := c1.outW + c2.outW - engine.KeyWidth
	if width < engine.KeyWidth {
		width = engine.KeyWidth
	}
	return clampTuples(card), width
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
		p = d.e.scanPlan(int(c.rel))
	} else {
		// Every join output is named by its relation subset. A subset
		// occurs at most once per plan tree, so the name is collision-free
		// within any plan a memoized subplan can end up in — essential
		// because the IR canonicalizer dedups regions by name and
		// geometry, and a bushy plan's disjoint subtrees (e.g. two
		// symmetric islands) routinely materialize same-sized
		// intermediates that must stay distinct regions. The exhaustive
		// enumerator's bare T%d names are safe only because left-deep
		// plans have one intermediate per size; costs are unaffected
		// either way (no collision under either scheme for left-deep
		// plans), which the parity harness locks.
		p = &Plan{
			Kind:      OpJoin,
			Algorithm: joinAlgs[c.alg],
			Fanout:    int64(c.fanout),
			Children:  []*Plan{d.materializeNode(c.left, cache), d.materializeNode(c.right, cache)},
			Out: Relation{
				Name:   fmt.Sprintf("T%d.%x", bits.OnesCount32(r.mask)-1, r.mask),
				Tuples: c.outN, Width: c.outW, Sorted: c.outSorted,
			},
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
