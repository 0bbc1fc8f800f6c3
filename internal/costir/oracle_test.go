package costir_test

// Oracles for the compiler's single-pass canonical rendering. The
// reference renderer below is the straightforward form the compiler
// replaced: every ⊕/⊙ node concatenates its children's rendered keys
// into a fresh string, so a nested node's text is copied once per
// enclosing level. It is quadratic in nesting depth and therefore kept
// here only as the definition Program.Canonical and CanonicalKey must
// match byte for byte.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/costir"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/queryplan"
	"repro/internal/region"
)

// oracleNode is one node of the oracle's canonical tree: its rendered
// key and, for ⊕, its flattened operands.
type oracleNode struct {
	seq  bool
	key  string
	kids []*oracleNode
}

// oracleCanonical renders p's canonical form by per-level string
// concatenation. p must validate.
func oracleCanonical(p pattern.Pattern) string {
	return oracleCanon(p, map[*region.Region]string{}).key
}

func oracleRegKey(r *region.Region, memo map[*region.Region]string) string {
	if k, ok := memo[r]; ok {
		return k
	}
	k := strconv.Quote(r.Name) + "!" + strconv.FormatInt(r.N, 10) + "!" + strconv.FormatInt(r.W, 10)
	if r.Parent != nil {
		k += "<" + oracleRegKey(r.Parent, memo)
	}
	memo[r] = k
	return k
}

func oracleBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func oracleCanon(p pattern.Pattern, memo map[*region.Region]string) *oracleNode {
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	leaf := func(key string) *oracleNode { return &oracleNode{key: key} }
	switch q := p.(type) {
	case pattern.STrav:
		return leaf("st(" + oracleRegKey(q.R, memo) + ";" + i64(pattern.Used(q.U, q.R)) + ";" + oracleBool(q.NoSeq) + ")")
	case pattern.RSTrav:
		return leaf("rst(" + oracleRegKey(q.R, memo) + ";" + i64(pattern.Used(q.U, q.R)) + ";" +
			i64(q.Repeats) + ";" + q.Dir.String() + ";" + oracleBool(q.NoSeq) + ")")
	case pattern.RTrav:
		return leaf("rt(" + oracleRegKey(q.R, memo) + ";" + i64(pattern.Used(q.U, q.R)) + ")")
	case pattern.RRTrav:
		return leaf("rrt(" + oracleRegKey(q.R, memo) + ";" + i64(pattern.Used(q.U, q.R)) + ";" + i64(q.Repeats) + ")")
	case pattern.RAcc:
		return leaf("ra(" + oracleRegKey(q.R, memo) + ";" + i64(pattern.Used(q.U, q.R)) + ";" + i64(q.Count) + ")")
	case pattern.Nest:
		count, order, noSeq := int64(0), q.Order, q.NoSeq
		if q.Inner == pattern.InnerRAcc {
			count = q.Count
		}
		if q.Inner != pattern.InnerSTrav {
			order, noSeq = pattern.OrderRandom, false
		}
		return leaf("nst(" + oracleRegKey(q.R, memo) + ";" + i64(pattern.Used(q.U, q.R)) + ";" + i64(q.M) + ";" +
			q.Inner.String() + ";" + i64(count) + ";" + order.String() + ";" + oracleBool(noSeq) + ")")
	case pattern.Seq:
		n := &oracleNode{seq: true}
		for _, sub := range q {
			if k := oracleCanon(sub, memo); k.seq {
				n.kids = append(n.kids, k.kids...)
			} else {
				n.kids = append(n.kids, k)
			}
		}
		n.key = oracleCompoundKey("+", n.kids)
		return n
	case pattern.Conc:
		kids := make([]*oracleNode, 0, len(q))
		for _, sub := range q {
			kids = append(kids, oracleCanon(sub, memo))
		}
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].key < kids[j].key })
		return &oracleNode{key: oracleCompoundKey("*", kids)}
	}
	panic(fmt.Sprintf("oracleCanon: unknown pattern type %T", p))
}

func oracleCompoundKey(sym string, kids []*oracleNode) string {
	keys := make([]string, len(kids))
	for i, k := range kids {
		keys[i] = k.key
	}
	return sym + "(" + strings.Join(keys, ",") + ")"
}

// checkCanonical fails t unless Compile's and CanonicalKey's renderings
// of p both equal the oracle's, byte for byte.
func checkCanonical(t *testing.T, what string, p pattern.Pattern) {
	t.Helper()
	want := oracleCanonical(p)
	prog, err := costir.Compile(p)
	if err != nil {
		t.Fatalf("%s: Compile: %v", what, err)
	}
	if got := prog.Canonical(); got != want {
		t.Fatalf("%s: Canonical() differs from the concatenating oracle:\n  got  %q\n  want %q", what, got, want)
	}
	key, err := costir.CanonicalKey(p)
	if err != nil {
		t.Fatalf("%s: CanonicalKey: %v", what, err)
	}
	if key != want {
		t.Fatalf("%s: CanonicalKey differs from the concatenating oracle:\n  got  %q\n  want %q", what, key, want)
	}
}

// TestCanonicalMatchesOracleOnRandomTrees drives FuzzCompileParity's
// tree generator with seeded random bytes, so every plain test run
// covers a few thousand trees beyond the fuzz seed corpus.
func TestCanonicalMatchesOracleOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 16+rng.Intn(112))
		rng.Read(data)
		b := &treeBuilder{data: data}
		p := b.pattern(0)
		checkCanonical(t, fmt.Sprintf("tree %d (%v)", i, p), p)
	}
}

// TestCanonicalMatchesOracleOnEnginePatterns covers the deep shapes the
// planner emits: recursive quick-sort (⊕ nested ~log n deep, each level
// holding a ⊙ of two sub-regions) and partitioned joins.
func TestCanonicalMatchesOracleOnEnginePatterns(t *testing.T) {
	u := region.New("U", 1<<22, 16)
	v := region.New("V", 1<<20, 16)
	w := region.New("W", 1<<20, 16)
	checkCanonical(t, "quicksort-64MB", engine.QuickSortPattern(u, 32<<10))
	checkCanonical(t, "quicksort-unpruned", engine.QuickSortPattern(region.New("S", 1<<10, 8), 0))
	checkCanonical(t, "partitioned64", engine.PartitionedHashJoinPattern(u, v, w, 64))
	checkCanonical(t, "singleton-seq", pattern.Seq{pattern.Seq{pattern.STrav{R: u}}})
	checkCanonical(t, "conc-of-seqs", pattern.Conc{
		pattern.Seq{pattern.STrav{R: w}, pattern.Conc{pattern.STrav{R: v}, pattern.RTrav{R: u}}},
		pattern.Seq{pattern.STrav{R: u}},
	})
}

// TestCanonicalMatchesOracleOnCatalog checks the five cheapest plans of
// every catalog scenario on both golden profiles — the programs whose
// Canonical() strings the golden corpus stores.
func TestCanonicalMatchesOracleOnCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the whole catalog")
	}
	for _, profile := range []string{"origin2000", "modern-x86"} {
		h := hardware.Profiles()[profile]()
		for _, sc := range queryplan.Catalog() {
			plans, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{})
			if err != nil {
				t.Fatalf("Rank(%s on %s): %v", sc.Name, profile, err)
			}
			for i := 0; i < len(plans) && i < 5; i++ {
				p := plans[i].Plan
				if got, want := p.Compiled.Canonical(), oracleCanonical(p.Pattern); got != want {
					t.Errorf("%s on %s, plan %d (%s): Canonical() differs from the concatenating oracle",
						sc.Name, profile, i, p.Algorithm)
				}
			}
		}
	}
}
