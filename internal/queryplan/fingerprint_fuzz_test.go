package queryplan_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hardware"
	"repro/internal/queryplan"
)

// FuzzQueryFingerprint fuzzes the canonical-fingerprint contract the
// serving plan cache stands on: for a random join graph and a random
// relabeling (relations renamed and reordered, edges flipped and
// reordered), the two spellings must produce the same shape key and
// the same canonical parameter vector, and the DP search must price
// both to the same winning cost — fingerprint equality really does
// mean "the cached plan ranking is the right answer".
func FuzzQueryFingerprint(f *testing.F) {
	f.Add([]byte{2, 10, 1, 0, 50, 2, 1, 3}, int64(1))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, int64(42))
	f.Add([]byte{3, 200, 2, 1, 9, 0, 3, 77, 77, 77, 5}, int64(7))
	f.Add([]byte{9, 255, 128, 64, 32, 16, 8, 4, 2, 1}, int64(-3))
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, int64(1<<40))

	h := hardware.SmallTest()

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		q, ok := queryFromFuzz(data)
		if !ok {
			t.Skip()
		}
		if err := q.Validate(); err != nil {
			t.Skip() // fuzzed parameters outside the domain
		}
		base, err := q.Fingerprint()
		if err != nil {
			t.Fatalf("valid query failed to fingerprint: %v", err)
		}

		rng := rand.New(rand.NewSource(seed))
		pq := relabelQuery(q, rng)
		fp, err := pq.Fingerprint()
		if err != nil {
			t.Fatalf("relabeled query failed to fingerprint: %v", err)
		}
		if fp.Key != base.Key || fp.Canonical != base.Canonical {
			t.Fatalf("relabeling changed the shape key:\n  base: %s\n  perm: %s", base.Canonical, fp.Canonical)
		}
		if len(fp.Params) != len(base.Params) {
			t.Fatalf("param vectors differ in length: %d vs %d", len(base.Params), len(fp.Params))
		}
		for i := range fp.Params {
			if math.Float64bits(fp.Params[i]) != math.Float64bits(base.Params[i]) {
				t.Fatalf("relabeling changed canonical params[%d]: %g vs %g", i, base.Params[i], fp.Params[i])
			}
		}

		// Fingerprint equality must imply identical DP answers: both
		// spellings search to the same winning cost (signatures differ
		// only by relation names). TopK: -1 disables memo pruning so the
		// comparison is over the complete bushy plan space.
		so := queryplan.SearchOptions{TopK: -1}
		basePlans, err := queryplan.Rank(h, q, so)
		if err != nil {
			t.Skip() // e.g. plan-cap errors on dense fuzzed graphs
		}
		permPlans, err := queryplan.Rank(h, pq, so)
		if err != nil {
			t.Fatalf("base searched but relabeled failed: %v", err)
		}
		if len(basePlans) != len(permPlans) {
			t.Fatalf("plan counts diverged: %d vs %d", len(basePlans), len(permPlans))
		}
		bw, pw := basePlans[0].Plan.TotalNS(), permPlans[0].Plan.TotalNS()
		if math.Float64bits(bw) != math.Float64bits(pw) {
			t.Fatalf("winning costs diverged under relabeling: %g (%s) vs %g (%s)",
				bw, basePlans[0].Plan.Algorithm, pw, permPlans[0].Plan.Algorithm)
		}
	})
}

// queryFromFuzz decodes a small join query from fuzz bytes: 2–3
// relations with fuzz-chosen cardinalities, widths, sortedness and
// flags, connected by a spanning tree plus (for 3 relations) up to one
// cycle-closing edge. The domain is kept small on purpose — the target
// searches the COMPLETE plan space (TopK -1) per iteration, and an
// uncapped cardinality would make a single quick-sort lowering explode
// into a multi-million-node IR tree.
func queryFromFuzz(data []byte) (queryplan.Query, bool) {
	if len(data) < 2 {
		return queryplan.Query{}, false
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next())%2
	var q queryplan.Query
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, queryplan.Relation{
			Name:   "R" + string(rune('a'+i)),
			Tuples: 1 + int64(next()),
			Width:  8 * (1 + int64(next())%4),
			Sorted: next()%4 == 0,
		})
	}
	for i := 1; i < n; i++ {
		q.Joins = append(q.Joins, queryplan.JoinEdge{
			Left: int(next()) % i, Right: i,
			Selectivity: 1 / float64(16+4*int(next())),
		})
	}
	if n > 2 && next()%2 == 0 {
		e := queryplan.JoinEdge{Left: 0, Right: n - 1, Selectivity: 1 / float64(16+4*int(next()))}
		dup := false
		for _, have := range q.Joins {
			if (have.Left == e.Left && have.Right == e.Right) || (have.Left == e.Right && have.Right == e.Left) {
				dup = true
			}
		}
		if !dup {
			q.Joins = append(q.Joins, e)
		}
	}
	switch next() % 4 {
	case 1:
		q.GroupBy = 1 + int64(next())
	case 2:
		q.Distinct = 1 + int64(next())
	case 3:
		q.SortBy = true
	}
	if next()%3 == 0 {
		q.Filters = make([]float64, n)
		for i := range q.Filters {
			q.Filters[i] = float64(int(next())%10) / 10 // 0 = no filter
		}
	}
	// Belt and braces: skip inputs whose worst-case intermediate would
	// still be large (cyclic selectivities can only shrink it further).
	card := 1.0
	for _, r := range q.Relations {
		card *= float64(r.Tuples)
	}
	for i := 1; i < n; i++ {
		card *= q.Joins[i-1].Selectivity
	}
	if card > 1e4 {
		return queryplan.Query{}, false
	}
	return q, true
}

// relabelQuery returns q with relations renamed and reordered, edges
// reordered and endpoint-flipped — everything the fingerprint must be
// blind to.
func relabelQuery(q queryplan.Query, rng *rand.Rand) queryplan.Query {
	perm := rng.Perm(len(q.Relations))
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	out := queryplan.Query{GroupBy: q.GroupBy, Distinct: q.Distinct, SortBy: q.SortBy}
	out.Relations = make([]queryplan.Relation, len(q.Relations))
	for newIdx, oldIdx := range perm {
		r := q.Relations[oldIdx]
		r.Name = "X" + string(rune('a'+newIdx))
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
		ne := queryplan.JoinEdge{Left: inv[e.Left], Right: inv[e.Right], Selectivity: e.Selectivity}
		if rng.Intn(2) == 0 {
			ne.Left, ne.Right = ne.Right, ne.Left
		}
		out.Joins = append(out.Joins, ne)
	}
	rng.Shuffle(len(out.Joins), func(i, j int) {
		out.Joins[i], out.Joins[j] = out.Joins[j], out.Joins[i]
	})
	return out
}
