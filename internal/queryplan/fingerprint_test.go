package queryplan

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/costir"
	"repro/internal/hardware"
)

// permuteQuery relabels q's relations by perm (new index i holds old
// relation perm[i]) and rewrites every index-carrying field. With
// rename set, relations are also renamed to fresh names — the
// fingerprint must not care either way.
func permuteQuery(q Query, perm []int, rename bool) Query {
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	out := Query{GroupBy: q.GroupBy, Distinct: q.Distinct, SortBy: q.SortBy}
	out.Relations = make([]Relation, len(q.Relations))
	for newIdx, oldIdx := range perm {
		r := q.Relations[oldIdx]
		if rename {
			r.Name = "perm" + string(rune('A'+newIdx%26)) + r.Name
		}
		out.Relations[newIdx] = r
	}
	if q.Filters != nil {
		out.Filters = make([]float64, len(q.Filters))
		for newIdx, oldIdx := range perm {
			out.Filters[newIdx] = q.Filters[oldIdx]
		}
	}
	if q.Projections != nil {
		out.Projections = make([]int64, len(q.Projections))
		for newIdx, oldIdx := range perm {
			out.Projections[newIdx] = q.Projections[oldIdx]
		}
	}
	for _, e := range q.Joins {
		out.Joins = append(out.Joins, JoinEdge{Left: inv[e.Left], Right: inv[e.Right], Selectivity: e.Selectivity})
	}
	return out
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFingerprintPermutationInvariant is the tentpole property test:
// for every catalog scenario and a pile of random permutations (with
// and without renaming), the fingerprint's shape key AND canonical
// parameter vector are identical — inline queries that differ only in
// relation naming or ordering map to one cache entry.
func TestFingerprintPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sc := range Catalog() {
		base, err := sc.Query.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(base.Perm) != len(sc.Query.Relations) {
			t.Fatalf("%s: perm covers %d of %d relations", sc.Name, len(base.Perm), len(sc.Query.Relations))
		}
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(len(sc.Query.Relations))
			pq := permuteQuery(sc.Query, perm, trial%2 == 0)
			fp, err := pq.Fingerprint()
			if err != nil {
				t.Fatalf("%s trial %d: %v", sc.Name, trial, err)
			}
			if fp.Key != base.Key || fp.Canonical != base.Canonical {
				t.Fatalf("%s trial %d (perm %v): shape key diverged\n  base: %s\n  perm: %s",
					sc.Name, trial, perm, base.Canonical, fp.Canonical)
			}
			if !equalF64(fp.Params, base.Params) {
				t.Fatalf("%s trial %d (perm %v): canonical params diverged\n  base: %v\n  perm: %v",
					sc.Name, trial, perm, base.Params, fp.Params)
			}
		}
	}
}

// TestFingerprintCatalogCollisions locks the catalog's shape-class
// partition: exactly the pairs that really are isomorphic shapes
// collide (they differ only in parameters), and every other pair is
// distinct.
func TestFingerprintCatalogCollisions(t *testing.T) {
	sameShape := map[string]string{
		// 1 relation + distinct, no filters: same shape, different
		// distinct targets (a parameter).
		"distinct-sparse": "distinct-dense",
		// 2 unsorted relations, 1 edge, no filters: same shape,
		// different cardinalities and selectivity.
		"join2-large": "join2-fk",
	}
	keys := map[string]string{}
	for _, sc := range Catalog() {
		fp, err := sc.Query.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		keys[sc.Name] = fp.Key
	}
	for _, sc := range Catalog() {
		for _, other := range Catalog() {
			if sc.Name >= other.Name {
				continue
			}
			want := sameShape[sc.Name] == other.Name || sameShape[other.Name] == sc.Name
			got := keys[sc.Name] == keys[other.Name]
			if got != want {
				t.Errorf("%s vs %s: shape keys equal=%t, want %t", sc.Name, other.Name, got, want)
			}
		}
	}
}

// TestFingerprintDriftKeepsShape: scaling cardinalities and
// selectivities (parameter drift) must keep the shape key and change
// only the parameter vector — the precondition for the plan cache's
// re-validation path.
func TestFingerprintDriftKeepsShape(t *testing.T) {
	for _, sc := range Catalog() {
		base, err := sc.Query.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		drifted := sc.Query
		drifted.Relations = append([]Relation(nil), sc.Query.Relations...)
		for i := range drifted.Relations {
			drifted.Relations[i].Tuples = drifted.Relations[i].Tuples*13/10 + 1
		}
		drifted.Joins = append([]JoinEdge(nil), sc.Query.Joins...)
		for i := range drifted.Joins {
			drifted.Joins[i].Selectivity *= 0.9
		}
		fp, err := drifted.Fingerprint()
		if err != nil {
			t.Fatalf("%s drifted: %v", sc.Name, err)
		}
		if fp.Key != base.Key {
			t.Errorf("%s: drift re-keyed the shape\n  base: %s\n  drift: %s", sc.Name, base.Canonical, fp.Canonical)
		}
		if equalF64(fp.Params, base.Params) {
			t.Errorf("%s: drifted params compare equal to the base", sc.Name)
		}
	}
}

// TestFingerprintStructureChangesKey: structural edits — adding a
// filter, toggling sortedness, adding an edge — must change the key.
func TestFingerprintStructureChangesKey(t *testing.T) {
	q := Query{
		Relations: []Relation{
			{Name: "A", Tuples: 1000, Width: 16},
			{Name: "B", Tuples: 2000, Width: 16},
			{Name: "C", Tuples: 4000, Width: 16},
		},
		Joins: []JoinEdge{
			{Left: 0, Right: 1, Selectivity: 1e-3},
			{Left: 1, Right: 2, Selectivity: 1e-3},
		},
	}
	base, err := q.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(name string, f func(Query) Query) {
		fp, err := f(q).Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp.Key == base.Key {
			t.Errorf("%s: structural edit did not change the shape key", name)
		}
	}
	edit("filter", func(q Query) Query {
		q.Filters = []float64{0.5, 0, 0}
		return q
	})
	edit("sorted", func(q Query) Query {
		q.Relations = append([]Relation(nil), q.Relations...)
		q.Relations[0].Sorted = true
		return q
	})
	edit("extra edge", func(q Query) Query {
		q.Joins = append(append([]JoinEdge(nil), q.Joins...), JoinEdge{Left: 0, Right: 2, Selectivity: 0.5})
		return q
	})
	edit("group-by", func(q Query) Query {
		q.GroupBy = 10
		return q
	})
	edit("sort-by", func(q Query) Query {
		q.SortBy = true
		return q
	})
	// Distinct vs group-by of the same target count: different shape.
	ga := q
	ga.GroupBy = 10
	gb := q
	gb.Distinct = 10
	fa, err := ga.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := gb.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa.Key == fb.Key {
		t.Error("group-by and distinct share a shape key")
	}
}

// TestFingerprintEdgeParamsCanonical: automorphic structures whose
// edge selectivities differ must still fingerprint
// permutation-invariantly — the parameter vector breaks the tie, and
// the min-leaf selection must pick the same labeling from any input
// order. A star with parameter-identical leaves but distinct edge
// selectivities is the adversarial case (the leaves are structurally
// and parameter-equivalent until edges are considered).
func TestFingerprintEdgeParamsCanonical(t *testing.T) {
	mk := func(perm []int, sels []float64) Query {
		q := Query{Relations: []Relation{{Name: "hub", Tuples: 100000, Width: 16}}}
		for i := 0; i < len(sels); i++ {
			q.Relations = append(q.Relations, Relation{Name: "leaf" + string(rune('a'+i)), Tuples: 5000, Width: 16})
			q.Joins = append(q.Joins, JoinEdge{Left: 0, Right: i + 1, Selectivity: sels[i]})
		}
		full := make([]int, 0, len(perm)+1)
		full = append(full, 0)
		for _, p := range perm {
			full = append(full, p+1)
		}
		return permuteQuery(q, full, true)
	}
	sels := []float64{3e-4, 1e-4, 2e-4, 5e-4}
	base, err := mk([]int{0, 1, 2, 3}, sels).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		fp, err := mk(rng.Perm(len(sels)), sels).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp.Key != base.Key || !equalF64(fp.Params, base.Params) {
			t.Fatalf("trial %d: star with distinct edge selectivities not canonical:\n  base: %v\n  perm: %v",
				trial, base.Params, fp.Params)
		}
	}
}

// lowerKey returns the canonical IR form + CPU estimate of a plan —
// equality implies bit-identical cost on every hierarchy.
func lowerKey(t *testing.T, p *Plan, prune int64) (string, float64) {
	t.Helper()
	pat, cpuNS, err := p.Lower(DefaultCPU(), prune)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := costir.CanonicalKey(pat)
	if err != nil {
		t.Fatal(err)
	}
	return canon, cpuNS
}

// TestRecipeBindRoundTrip: extracting a recipe from every searched
// plan and binding it back to the same query must reproduce the plan
// exactly — same signature, same canonical lowered pattern, same CPU
// estimate — for both search strategies.
func TestRecipeBindRoundTrip(t *testing.T) {
	h := hardware.SmallTest()
	prune := int64(1 << 62)
	for _, l := range h.Levels {
		if l.Capacity < prune {
			prune = l.Capacity
		}
	}
	for _, name := range []string{"join2-fk", "join3-chain-q3", "join4-chain", "join5-cycle", "groupby-few", "sort-unsorted"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("unknown scenario %s", name)
		}
		fp, err := sc.Query.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		plans, err := Search(sc.Query, Options{}, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range plans {
			r, err := NewRecipe(p, sc.Query, fp)
			if err != nil {
				t.Fatalf("%s %s: extract: %v", name, p.Signature(), err)
			}
			bound, err := r.Bind(sc.Query, fp)
			if err != nil {
				t.Fatalf("%s %s: bind: %v", name, p.Signature(), err)
			}
			if bound.Signature() != p.Signature() {
				t.Fatalf("%s: bound signature %s != %s", name, bound.Signature(), p.Signature())
			}
			wantCanon, wantCPU := lowerKey(t, p, prune)
			gotCanon, gotCPU := lowerKey(t, bound, prune)
			if gotCanon != wantCanon || math.Float64bits(gotCPU) != math.Float64bits(wantCPU) {
				t.Fatalf("%s %s: bound plan does not lower identically", name, p.Signature())
			}
		}
	}
}

// TestRecipeBindPermuted: a recipe extracted from one query binds to a
// permuted+renamed isomorph and prices bit-identically to searching
// that isomorph directly (winner vs winner).
func TestRecipeBindPermuted(t *testing.T) {
	h := hardware.SmallTest()
	sc, _ := ScenarioByName("join4-chain")
	fp, err := sc.Query.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := Search(sc.Query, Options{}, h)
	if err != nil {
		t.Fatal(err)
	}
	winner := plans[0]
	recipe, err := NewRecipe(winner, sc.Query, fp)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		pq := permuteQuery(sc.Query, rng.Perm(len(sc.Query.Relations)), true)
		pfp, err := pq.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if pfp.Key != fp.Key {
			t.Fatalf("trial %d: isomorph re-keyed", trial)
		}
		bound, err := recipe.Bind(pq, pfp)
		if err != nil {
			t.Fatalf("trial %d: bind: %v", trial, err)
		}
		pplans, err := Search(pq, Options{}, h)
		if err != nil {
			t.Fatal(err)
		}
		wantCanon, wantCPU := lowerKey(t, pplans[0], h.MinCapacity())
		gotCanon, gotCPU := lowerKey(t, bound, h.MinCapacity())
		if gotCanon != wantCanon || math.Float64bits(gotCPU) != math.Float64bits(wantCPU) {
			t.Fatalf("trial %d: bound winner does not match the isomorph's searched winner\n  bound:    %s\n  searched: %s",
				trial, bound.Signature(), pplans[0].Signature())
		}
	}
}

// TestRecipeCoverageErrors: structurally broken recipes fail loudly at
// bind time instead of producing a wrong plan.
func TestRecipeCoverageErrors(t *testing.T) {
	sc, _ := ScenarioByName("join2-fk")
	fp, err := sc.Query.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// A recipe scanning only one relation does not cover the query.
	if _, err := (&Recipe{Kind: OpScan, Pos: 0}).Bind(sc.Query, fp); err == nil {
		t.Error("partial-coverage recipe bound without error")
	}
	// Duplicated leaves overlap.
	dup := &Recipe{Kind: OpJoin, Algorithm: HashJoin, Children: []*Recipe{
		{Kind: OpScan, Pos: 0}, {Kind: OpScan, Pos: 0},
	}}
	if _, err := dup.Bind(sc.Query, fp); err == nil {
		t.Error("overlapping recipe bound without error")
	}
	// Scan position outside the query.
	far := &Recipe{Kind: OpScan, Pos: 9}
	if _, err := far.Bind(sc.Query, fp); err == nil {
		t.Error("out-of-range scan position bound without error")
	}
	// A grouping operator the query does not ask for.
	agg := &Recipe{Kind: OpAggregate, Algorithm: HashAggregate, Children: []*Recipe{
		{Kind: OpJoin, Algorithm: HashJoin, Children: []*Recipe{
			{Kind: OpScan, Pos: 0}, {Kind: OpScan, Pos: 1},
		}},
	}}
	if _, err := agg.Bind(sc.Query, fp); err == nil {
		t.Error("phantom grouping recipe bound without error")
	}
}

// TestFingerprintPermIsPermutation guards the Perm contract on random
// connected graphs: every relation index appears exactly once.
func TestFingerprintPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		q := randomConnectedQuery(rng, n)
		fp, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, i := range fp.Perm {
			if i < 0 || i >= n {
				t.Fatalf("perm entry %d outside [0, %d)", i, n)
			}
			seen |= 1 << i
		}
		if seen != 1<<n-1 {
			t.Fatalf("perm %v is not a permutation of %d relations (%d set)", fp.Perm, n, bits.OnesCount(uint(seen)))
		}
	}
}

// randomConnectedQuery builds a random tree-plus-extra-edges join
// graph with varied parameters.
func randomConnectedQuery(rng *rand.Rand, n int) Query {
	q := Query{}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, Relation{
			Name:   "R" + string(rune('0'+i)),
			Tuples: int64(1000 * (1 + rng.Intn(50))),
			Width:  int64(8 * (1 + rng.Intn(4))),
			Sorted: rng.Intn(4) == 0,
		})
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		q.Joins = append(q.Joins, JoinEdge{Left: j, Right: i, Selectivity: 1 / float64(1+rng.Intn(10000))})
	}
	// Sprinkle extra edges (skip duplicates).
	have := map[[2]int]bool{}
	for _, e := range q.Joins {
		lo, hi := e.Left, e.Right
		if lo > hi {
			lo, hi = hi, lo
		}
		have[[2]int{lo, hi}] = true
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if have[[2]int{lo, hi}] {
			continue
		}
		have[[2]int{lo, hi}] = true
		q.Joins = append(q.Joins, JoinEdge{Left: a, Right: b, Selectivity: 1 / float64(1+rng.Intn(100))})
	}
	return q
}
