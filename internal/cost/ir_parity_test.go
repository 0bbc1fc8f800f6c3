package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// This file certifies the central refactoring invariant: the flat-IR
// evaluator (internal/costir, behind Model.Evaluate) and the recursive
// tree walker (Model.EvaluateTree, the reference oracle) predict the
// same misses and the same T_mem on every level, for randomized
// compound patterns and for every operator pattern the engine emits.
//
// The generator draws regions from a fixed pool of *distinct*
// identities (distinct name/geometry), so region deduplication — where
// the IR intentionally diverges from the pointer-keyed walker, see
// TestRegionDedupAcrossPointers in costir — is identity-preserving and
// exact agreement (up to float reassociation) is required.

// relTol absorbs float reassociation: the IR sums misses and resident
// bytes in canonical (sorted) child order, the tree walker misses in
// source order and resident bytes in ascending order of the terms.
const relTol = 1e-6

func assertParity(t *testing.T, m *Model, p pattern.Pattern) {
	t.Helper()
	ir, err := m.Evaluate(p)
	if err != nil {
		t.Fatalf("IR Evaluate(%s): %v", p, err)
	}
	tree, err := m.EvaluateTree(p)
	if err != nil {
		t.Fatalf("tree Evaluate(%s): %v", p, err)
	}
	for i := range tree.PerLevel {
		name := tree.PerLevel[i].Level.Name
		tm, im := tree.PerLevel[i].Misses, ir.PerLevel[i].Misses
		if !close(tm.Seq, im.Seq) || !close(tm.Rnd, im.Rnd) {
			t.Errorf("%s: level %s: tree (%g seq, %g rnd) != IR (%g seq, %g rnd)\npattern: %s",
				m.Hierarchy().Name, name, tm.Seq, tm.Rnd, im.Seq, im.Rnd, p)
		}
	}
	if tt, it := tree.MemoryTimeNS(), ir.MemoryTimeNS(); !close(tt, it) {
		t.Errorf("%s: T_mem: tree %g != IR %g\npattern: %s", m.Hierarchy().Name, tt, it, p)
	}
}

func close(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// randomPatterns generates compound pattern trees over a pool of
// distinct regions: basic leaves of every kind, ⊕ and ⊙ combinations,
// nesting up to depth 3, including sub-region parent chains.
type patternGen struct {
	rng  *rand.Rand
	pool []*region.Region
}

func newPatternGen(seed int64) *patternGen {
	rng := rand.New(rand.NewSource(seed))
	var pool []*region.Region
	// Distinct identities: names differ, or geometries differ. Sizes
	// straddle the test hierarchies' cache capacities.
	geoms := []struct {
		n, w int64
	}{
		{64, 8}, {256, 16}, {1024, 8}, {4096, 16}, {4096, 64},
		{32768, 16}, {131072, 8}, {131072, 64}, {1 << 20, 16},
	}
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I"}
	for i, g := range geoms {
		pool = append(pool, region.New(names[i], g.n, g.w))
	}
	// Parent chains: halves and quarters of a couple of pool regions.
	a, b := pool[3].Halves()
	pool = append(pool, a, b, a.Sub(0, 2), pool[7].Sub(1, 4))
	return &patternGen{rng: rng, pool: pool}
}

func (g *patternGen) region() *region.Region {
	return g.pool[g.rng.Intn(len(g.pool))]
}

// u picks a bytes-used parameter: 0 (all), the width, or a partial use.
func (g *patternGen) u(r *region.Region) int64 {
	switch g.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return r.W
	default:
		return 1 + g.rng.Int63n(r.W)
	}
}

func (g *patternGen) basic() pattern.Pattern {
	r := g.region()
	switch g.rng.Intn(6) {
	case 0:
		return pattern.STrav{R: r, U: g.u(r), NoSeq: g.rng.Intn(4) == 0}
	case 1:
		return pattern.RSTrav{R: r, U: g.u(r), Repeats: 1 + g.rng.Int63n(5),
			Dir: pattern.Direction(g.rng.Intn(2)), NoSeq: g.rng.Intn(4) == 0}
	case 2:
		return pattern.RTrav{R: r, U: g.u(r)}
	case 3:
		return pattern.RRTrav{R: r, U: g.u(r), Repeats: 1 + g.rng.Int63n(4)}
	case 4:
		return pattern.RAcc{R: r, U: g.u(r), Count: 1 + g.rng.Int63n(4*r.N)}
	default:
		inner := pattern.InnerKind(g.rng.Intn(3))
		n := pattern.Nest{
			R: r, U: g.u(r), M: 1 + g.rng.Int63n(64), Inner: inner,
			Order: pattern.Order(g.rng.Intn(3)), NoSeq: g.rng.Intn(4) == 0,
		}
		if inner == pattern.InnerRAcc {
			n.Count = 1 + g.rng.Int63n(100)
		}
		return n
	}
}

func (g *patternGen) pattern(depth int) pattern.Pattern {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.basic()
	}
	k := 2 + g.rng.Intn(3)
	kids := make([]pattern.Pattern, k)
	for i := range kids {
		kids[i] = g.pattern(depth - 1)
	}
	if g.rng.Intn(2) == 0 {
		return pattern.Seq(kids)
	}
	return pattern.Conc(kids)
}

// TestIRMatchesTreeOnRandomPatterns is the ~1k-pattern property test:
// both evaluators agree on misses and T_mem at every level, on two
// very different hierarchies.
func TestIRMatchesTreeOnRandomPatterns(t *testing.T) {
	models := []*Model{
		MustNew(hardware.Origin2000()),
		MustNew(hardware.SmallTest()),
	}
	gen := newPatternGen(20260728)
	const iterations = 1000
	for i := 0; i < iterations; i++ {
		p := gen.pattern(3)
		for _, m := range models {
			assertParity(t, m, p)
		}
		if t.Failed() && i > 25 {
			t.Fatalf("stopping after iteration %d", i)
		}
	}
}

// TestIRMatchesTreeOnOperatorPatterns pins parity on every pattern the
// engine and planner actually emit.
func TestIRMatchesTreeOnOperatorPatterns(t *testing.T) {
	m := MustNew(hardware.Origin2000())
	for _, p := range operatorPatterns() {
		assertParity(t, m, p)
	}
}
