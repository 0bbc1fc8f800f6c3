package costir_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/costir"
	"repro/internal/pattern"
	"repro/internal/region"
)

// The ⊙ comparator orders operands by their canonical renderings
// without building them. These tests hold its sign to strings.Compare
// on the concatenating oracle's renderings (oracle_test.go), on pairs
// built to meet where the comparator's reasoning is delicate: names
// that strconv.Quote escapes, names that are prefixes of one another,
// numbers of different digit counts (compared as text, so "10" < "9"),
// the separators '!', '<', ';', ',' and ')' meeting a digit or a
// letter, and compounds nested in compounds or extending one another.

// compareNames are region names that quote to escapes, are prefixes of
// one another, or end in a separator byte of the rendering.
var compareNames = []string{
	"U", "U_0", "U_0_1", "U!", "U<", "U;", "U,", "U)", "U(", `U"`, `U\`, "U\n", "U\x00", "Ué",
	"", "V", "u", "Z", "~",
}

// compareValues span digit counts, so text order and numeric order
// disagree.
var compareValues = []int64{1, 2, 9, 10, 11, 19, 90, 99, 100, 1000}

type pairGen struct {
	rng     *rand.Rand
	regions []*region.Region
}

func newPairGen(seed int64) *pairGen {
	g := &pairGen{rng: rand.New(rand.NewSource(seed))}
	for _, name := range compareNames {
		for _, n := range []int64{9, 10, 100} {
			for _, w := range []int64{8, 9, 16, 80} {
				r := region.New(name, n, w)
				g.regions = append(g.regions, r, r.Sub(0, 2), r.Sub(1, 2), r.Sub(1, 2).Sub(0, 3))
			}
		}
	}
	return g
}

func (g *pairGen) region() *region.Region { return g.regions[g.rng.Intn(len(g.regions))] }
func (g *pairGen) value() int64           { return compareValues[g.rng.Intn(len(compareValues))] }

func (g *pairGen) basic() pattern.Pattern {
	r := g.region()
	u := int64(0)
	if g.rng.Intn(3) == 0 {
		u = 1 + g.rng.Int63n(r.W)
	}
	noSeq := g.rng.Intn(2) == 0
	switch g.rng.Intn(6) {
	case 0:
		return pattern.STrav{R: r, U: u, NoSeq: noSeq}
	case 1:
		return pattern.RSTrav{R: r, U: u, Repeats: g.value(), Dir: pattern.Direction(g.rng.Intn(2)), NoSeq: noSeq}
	case 2:
		return pattern.RTrav{R: r, U: u}
	case 3:
		return pattern.RRTrav{R: r, U: u, Repeats: g.value()}
	case 4:
		return pattern.RAcc{R: r, U: u, Count: g.value()}
	default:
		return pattern.Nest{R: r, U: u, M: g.value(), Inner: pattern.InnerKind(g.rng.Intn(3)),
			Count: g.value(), Order: pattern.Order(g.rng.Intn(3)), NoSeq: noSeq}
	}
}

func (g *pairGen) pattern(depth int) pattern.Pattern {
	if depth >= 3 || g.rng.Intn(3) == 0 {
		return g.basic()
	}
	kids := make([]pattern.Pattern, 1+g.rng.Intn(3))
	for i := range kids {
		kids[i] = g.pattern(depth + 1)
	}
	if g.rng.Intn(2) == 0 {
		return pattern.Seq(kids)
	}
	return pattern.Conc(kids)
}

// near returns a pattern that shares most of p's rendering: p with one
// basic redrawn, one operand dropped or appended, or p wrapped.
func (g *pairGen) near(p pattern.Pattern) pattern.Pattern {
	switch q := p.(type) {
	case pattern.Seq:
		return pattern.Seq(g.nearKids(q))
	case pattern.Conc:
		return pattern.Conc(g.nearKids(q))
	}
	switch g.rng.Intn(3) {
	case 0:
		return pattern.Seq{p}
	case 1:
		return pattern.Conc{p, g.basic()}
	}
	return g.basic()
}

func (g *pairGen) nearKids(kids []pattern.Pattern) []pattern.Pattern {
	out := append([]pattern.Pattern(nil), kids...)
	switch i := g.rng.Intn(len(out)); g.rng.Intn(3) {
	case 0:
		out[i] = g.near(out[i])
	case 1:
		if len(out) > 1 {
			out = append(out[:i], out[i+1:]...)
		}
	default:
		out = append(out, g.pattern(2))
	}
	return out
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

func checkCompare(t *testing.T, what string, a, b pattern.Pattern) {
	t.Helper()
	got, err := costir.CompareCanonical(a, b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ka, kb := oracleCanonical(a), oracleCanonical(b)
	if want := strings.Compare(ka, kb); sign(got) != want {
		t.Fatalf("%s: comparator says %d, strings.Compare says %d on\n  %q\n  %q", what, got, want, ka, kb)
	}
}

// TestCompareMatchesStringOrder draws random pairs, near pairs (one
// operand redrawn, dropped or appended, so the renderings share a long
// prefix) and equal pairs.
func TestCompareMatchesStringOrder(t *testing.T) {
	g := newPairGen(22)
	for i := 0; i < 4000; i++ {
		a := g.pattern(0)
		checkCompare(t, fmt.Sprintf("pair %d random", i), a, g.pattern(0))
		checkCompare(t, fmt.Sprintf("pair %d near", i), a, g.near(a))
		checkCompare(t, fmt.Sprintf("pair %d equal", i), a, a)
	}
}

// TestCompareEdgeCases spells out the cases the comparator's reasoning
// turns on, each against its mirror image.
func TestCompareEdgeCases(t *testing.T) {
	u := region.New("U", 10, 8)
	st := func(r *region.Region) pattern.Pattern { return pattern.STrav{R: r} }
	cases := []struct {
		name string
		a, b pattern.Pattern
	}{
		{"prefix name", st(u), st(region.New("U_0", 10, 8))},
		{"quote against '!'", st(u), st(region.New("U!", 10, 8))},
		{"escaped quote", st(region.New(`U"`, 10, 8)), st(region.New(`U\`, 10, 8))},
		{"escaped control byte", st(region.New("U\n", 10, 8)), st(region.New("U\x00", 10, 8))},
		{"non-ASCII name", st(region.New("Ué", 10, 8)), st(region.New("U~", 10, 8))},
		{"item count digits", st(region.New("U", 9, 8)), st(region.New("U", 10, 8))},
		{"width digits before ';'", st(region.New("U", 10, 8)), st(region.New("U", 10, 80))},
		{"width digits before '<'", st(u.Sub(0, 2)), st(region.New("U_0", 5, 80).Sub(0, 1))},
		{"sub-region against root", st(u.Sub(0, 1)), st(region.New("U_0", 10, 8))},
		{"chain differs at the root", st(u.Sub(0, 2)), st(region.New("U", 11, 8).Sub(0, 2))},
		{"repeat digits before ')'", pattern.RRTrav{R: u, Repeats: 9}, pattern.RRTrav{R: u, Repeats: 10}},
		{"bytes-used digits before ';'", pattern.STrav{R: region.New("U", 10, 16), U: 2},
			pattern.STrav{R: region.New("U", 10, 16), U: 10}},
		{"opcode names", pattern.RTrav{R: u}, pattern.RRTrav{R: u, Repeats: 2}},
		{"compound against basic", pattern.Seq{st(u)}, st(u)},
		{"⊕ against ⊙", pattern.Seq{st(u)}, pattern.Conc{st(u)}},
		{"operand list prefix", pattern.Conc{st(u)}, pattern.Conc{st(u), st(u)}},
		{"nested compound", pattern.Conc{pattern.Seq{st(u), st(u)}, st(u)},
			pattern.Conc{pattern.Seq{st(u)}, st(u)}},
		{"flattened ⊕", pattern.Seq{pattern.Seq{st(u), st(u)}}, pattern.Seq{st(u), st(u)}},
	}
	for _, tc := range cases {
		checkCompare(t, tc.name, tc.a, tc.b)
		checkCompare(t, tc.name+" (mirrored)", tc.b, tc.a)
	}
}
