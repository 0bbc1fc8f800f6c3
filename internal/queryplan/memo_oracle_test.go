package queryplan

// A test-only port of the retired map-memo DP search (the pointer-based
// implementation the arena memo replaced; see git history of dp.go).
// The oracle keeps the old shape — heap-allocated *Plan nodes per
// candidate, per-subset map-free buckets of scored structs, a global
// insertion counter, join nodes drawn from the exhaustive enumerator's
// joinNodes — but prices every candidate with the CURRENT bounder, so
// its bounds match the arena engine bit-for-bit and any divergence is a
// memo-mechanics bug (insertion order, compaction, ranking, child
// references), not a costing difference.
//
// TestDPMatchesMapMemoOracle drives both engines over randomly
// generated ≤8-relation join graphs across top-k, left-deep and
// parallelism settings and requires identical ordered plan lists.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/hardware"
)

// oracleScored is one memoized subplan with its context-free bound and
// the global insertion number that breaks bound ties.
type oracleScored struct {
	plan  *Plan
	bound float64
	seq   int
}

// oracleEntry holds one subset's survivors split by output order.
type oracleEntry struct {
	unsorted, sorted []oracleScored
}

func (m *oracleEntry) empty() bool { return len(m.unsorted) == 0 && len(m.sorted) == 0 }

// ranked returns the entry's subplans merged across both order classes,
// cheapest (bound, seq) first.
func (m *oracleEntry) ranked() []oracleScored {
	all := make([]oracleScored, 0, len(m.unsorted)+len(m.sorted))
	all = append(all, m.unsorted...)
	all = append(all, m.sorted...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].bound != all[j].bound {
			return all[i].bound < all[j].bound
		}
		return all[i].seq < all[j].seq
	})
	return all
}

// oracleDP carries one oracle run: the retired engine's state, with the
// bounder swapped in as the pricing primitive.
type oracleDP struct {
	e        *enumerator
	b        *bounder
	topK     int
	leftDeep bool
	adj      []uint32
	memo     []oracleEntry
	seq      int
}

// oracleSearch mirrors the retired dpSearch: memo built in numeric
// subset order (so every proper subset precedes its supersets), then
// the full set's ranked survivors expanded with the shared
// aggregate/distinct/order-by variants.
func oracleSearch(q Query, opts Options, so SearchOptions, hier *hardware.Hierarchy) ([]*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	e := enumerator{q: q, opts: opts}
	n := len(q.Relations)

	d := &oracleDP{
		e:        &e,
		b:        newBounder(hier, opts.PruneBytes, opts.CPU),
		topK:     so.topK(),
		leftDeep: so.LeftDeepOnly,
		adj:      adjacency(q),
		memo:     make([]oracleEntry, 1<<n),
	}
	for i := 0; i < n; i++ {
		leaf := q.scanPlan(i)
		b, err := d.b.leafBound(leaf)
		if err != nil {
			return nil, err
		}
		d.insert(uint32(1)<<i, oracleScored{plan: leaf, bound: b, seq: d.next()})
	}
	full := uint32(1)<<n - 1
	for s := uint32(3); s <= full; s++ {
		if bits.OnesCount32(s) < 2 {
			continue
		}
		if err := d.buildSubset(s); err != nil {
			return nil, err
		}
	}

	ranked := d.memo[full].ranked()
	plans := make([]*Plan, len(ranked))
	for i, r := range ranked {
		plans[i] = r.plan
	}
	if q.GroupBy > 0 {
		plans = aggVariants(plans, OpAggregate, q.GroupBy)
	}
	if q.Distinct > 0 {
		plans = aggVariants(plans, OpDistinct, q.Distinct)
	}
	if q.SortBy {
		plans = sortVariants(plans)
	}
	if so.TopK >= 0 && len(plans) > opts.MaxPlans {
		return nil, fmt.Errorf("oracle: %d plans exceed the cap of %d", len(plans), opts.MaxPlans)
	}
	return plans, nil
}

func (d *oracleDP) next() int {
	d.seq++
	return d.seq
}

func (d *oracleDP) insert(s uint32, sc oracleScored) {
	entry := &d.memo[s]
	bucket := &entry.unsorted
	if sc.plan.Out.Sorted {
		bucket = &entry.sorted
	}
	*bucket = append(*bucket, sc)
	if d.topK < math.MaxInt/2 && len(*bucket) >= 2*d.topK+16 {
		*bucket = oracleCut(*bucket, d.topK)
	}
}

func oracleCut(b []oracleScored, k int) []oracleScored {
	sort.SliceStable(b, func(i, j int) bool { return b[i].bound < b[j].bound })
	if len(b) > k {
		b = b[:k]
	}
	return b
}

func (d *oracleDP) buildSubset(s uint32) error {
	for _, s1 := range oracleSplits(s) {
		s2 := s ^ s1
		if d.leftDeep && bits.OnesCount32(s2) != 1 {
			continue
		}
		e1, e2 := &d.memo[s1], &d.memo[s2]
		if e1.empty() || e2.empty() || !d.crossEdge(s1, s2) {
			continue
		}
		for _, p1 := range e1.ranked() {
			for _, p2 := range e2.ranked() {
				out := d.pairOutput(p1.plan, p2.plan, s1, s2, s)
				for _, node := range d.e.joinNodes(p1.plan, p2.plan, out) {
					op, err := d.b.joinBound(opKey{
						alg: node.Algorithm, fanout: node.Fanout,
						n1: p1.plan.Out.Tuples, w1: p1.plan.Out.Width, sorted1: p1.plan.Out.Sorted,
						n2: p2.plan.Out.Tuples, w2: p2.plan.Out.Width, sorted2: p2.plan.Out.Sorted,
						nOut: node.Out.Tuples, wOut: node.Out.Width,
					})
					if err != nil {
						return err
					}
					d.insert(s, oracleScored{plan: node, bound: p1.bound + p2.bound + op, seq: d.next()})
				}
			}
		}
	}
	entry := &d.memo[s]
	if d.topK < math.MaxInt/2 {
		entry.unsorted = oracleCut(entry.unsorted, d.topK)
		entry.sorted = oracleCut(entry.sorted, d.topK)
	}
	return nil
}

// oracleSplits enumerates the proper non-empty subsets of s ascending.
func oracleSplits(s uint32) []uint32 {
	subs := make([]uint32, 0, 16)
	for s1 := (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s {
		subs = append(subs, s1)
	}
	for i, j := 0, len(subs)-1; i < j; i, j = i+1, j-1 {
		subs[i], subs[j] = subs[j], subs[i]
	}
	return subs
}

func (d *oracleDP) crossEdge(s1, s2 uint32) bool {
	for f := s1; f != 0; f &= f - 1 {
		if d.adj[bits.TrailingZeros32(f)]&s2 != 0 {
			return true
		}
	}
	return false
}

// pairOutput reproduces the retired engine's join-output estimate,
// including the subset-based T<size>.<mask> naming that the arena
// engine's materializeNode re-creates.
func (d *oracleDP) pairOutput(p1, p2 *Plan, s1, s2, s uint32) Relation {
	card := float64(p1.Out.Tuples) * float64(p2.Out.Tuples)
	for _, edge := range d.e.q.Joins {
		l, r := uint32(1)<<edge.Left, uint32(1)<<edge.Right
		if (l&s1 != 0 && r&s2 != 0) || (l&s2 != 0 && r&s1 != 0) {
			card *= edge.Selectivity
		}
	}
	width := p1.Out.Width + p2.Out.Width - engine.KeyWidth
	if width < engine.KeyWidth {
		width = engine.KeyWidth
	}
	return Relation{
		Name:   fmt.Sprintf("T%d.%x", bits.OnesCount32(s)-1, s),
		Tuples: clampTuples(card),
		Width:  width,
	}
}

// planFingerprint renders a plan tree with every field the memo decides
// — stronger than Signature, which elides output geometry and names.
func planFingerprint(p *Plan) string {
	var b strings.Builder
	var walk func(p *Plan)
	walk = func(p *Plan) {
		fmt.Fprintf(&b, "%d:%s:%d:%s:%g:%d:%d:{%s,%d,%d,%t}(",
			p.Kind, p.Algorithm, p.Fanout, p.Rel.Name, p.Filter, p.Proj, p.Groups,
			p.Out.Name, p.Out.Tuples, p.Out.Width, p.Out.Sorted)
		for _, c := range p.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	walk(p)
	return b.String()
}

// randomJoinQuery draws a connected join graph over 2–8 relations with
// varied cardinalities, widths, sort flags, filters, projections and an
// occasional aggregate / distinct / order-by.
func randomJoinQuery(rng *rand.Rand) Query {
	n := 2 + rng.Intn(7)
	rels := make([]Relation, n)
	for i := range rels {
		rels[i] = Relation{
			Name:   fmt.Sprintf("R%d", i),
			Tuples: int64(50 * math.Pow(10, rng.Float64()*2)), // 50 .. 5k
			Width:  engine.KeyWidth * int64(1+rng.Intn(4)),
			Sorted: rng.Intn(3) == 0,
		}
	}
	q := Query{Relations: rels}
	seen := map[[2]int]bool{}
	addEdge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		// FK-style selectivity, scaled by the larger input: keeps every
		// intermediate near its inputs' size. Uniform (1e-4, 1]
		// selectivities let an 8-relation chain of near-1 edges compound
		// into ~1e20-tuple intermediates, whose sort lowerings recurse to
		// the prune bound and blow both the test timeout and memory.
		maxN := rels[a].Tuples
		if rels[b].Tuples > maxN {
			maxN = rels[b].Tuples
		}
		q.Joins = append(q.Joins, JoinEdge{
			Left: a, Right: b,
			Selectivity: math.Pow(10, -rng.Float64()) / float64(maxN),
		})
	}
	for i := 1; i < n; i++ {
		addEdge(rng.Intn(i), i) // spanning tree: always connected
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.1 {
				addEdge(i, j)
			}
		}
	}
	if rng.Intn(2) == 0 {
		q.Filters = make([]float64, n)
		for i := range q.Filters {
			if rng.Intn(3) == 0 {
				q.Filters[i] = 0.05 + 0.9*rng.Float64()
			}
		}
	}
	if rng.Intn(3) == 0 {
		q.Projections = make([]int64, n)
		for i := range q.Projections {
			if rels[i].Width > engine.KeyWidth && rng.Intn(3) == 0 {
				q.Projections[i] = engine.KeyWidth
			}
		}
	}
	switch rng.Intn(5) {
	case 0:
		q.GroupBy = int64(1 + rng.Intn(500))
	case 1:
		q.Distinct = int64(1 + rng.Intn(500))
	case 2:
		q.SortBy = true
	}
	return q
}

// TestDPMatchesMapMemoOracle is the arena-memo regression property: on
// random join graphs the arena/dense-memo engine must return exactly
// the plan lists of the retired map-memo implementation — same plans,
// same order, same geometry — across top-k, left-deep and parallelism
// settings. Both engines share the bounder, so this isolates the memo
// mechanics (slab storage, slot references, per-subset tie-breaking,
// stratum scheduling) as the only thing under test.
func TestDPMatchesMapMemoOracle(t *testing.T) {
	h := hardware.Origin2000()
	prune := h.Levels[0].Capacity
	for _, l := range h.Levels {
		if l.Capacity < prune {
			prune = l.Capacity
		}
	}
	queries := 12
	if testing.Short() {
		queries = 4
	}
	rng := rand.New(rand.NewSource(20260808))
	for qi := 0; qi < queries; qi++ {
		q := randomJoinQuery(rng)
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", qi, err)
		}
		configs := []SearchOptions{
			{TopK: 1},
			{TopK: 3, Parallelism: 8},
			{TopK: 2, LeftDeepOnly: true},
		}
		// Unpruned runs explode combinatorially; keep them to small graphs.
		if len(q.Relations) <= 5 {
			configs = append(configs,
				SearchOptions{TopK: -1, Parallelism: 2},
				SearchOptions{TopK: -1, LeftDeepOnly: true})
		}
		for ci, so := range configs {
			// Two fan-outs keep multiple partitioned-hash-join candidates
			// per pair in the inventory without paying a cold m=256 IR
			// evaluation for every distinct random geometry — the memo
			// mechanics under test do not depend on the fan-out inventory.
			opts := Options{PruneBytes: prune, Fanouts: []int64{16, 64}, Search: so}
			got, err := Search(q, opts, h)
			if err != nil {
				t.Fatalf("query %d config %d: arena search: %v", qi, ci, err)
			}
			want, err := oracleSearch(q, opts, so, h)
			if err != nil {
				t.Fatalf("query %d config %d: oracle search: %v", qi, ci, err)
			}
			if len(got) != len(want) {
				t.Errorf("query %d config %d (topK=%d leftdeep=%t par=%d): %d plans, oracle %d",
					qi, ci, so.TopK, so.LeftDeepOnly, so.Parallelism, len(got), len(want))
				continue
			}
			for i := range got {
				g, w := planFingerprint(got[i]), planFingerprint(want[i])
				if g != w {
					t.Errorf("query %d config %d plan %d diverged:\n  arena:  %s\n  oracle: %s",
						qi, ci, i, g, w)
					break
				}
			}
		}
	}
}
