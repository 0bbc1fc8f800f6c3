package costir_test

// The random-tree half of the evaluator bits golden (the catalog half is
// internal/queryplan/evalbits_test.go): the exact float64 bits of every
// level's misses for seeded random compound patterns on three
// hierarchies. The patterns revisit a small pool of regions and
// sub-regions of odd sizes around the cache capacities, under nested ⊕
// and ⊙, so partial residency, its inheritance and its rescaling
// reach the miss counts, and their fractions round.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/costir -run TestEvalBitsRandomTrees -update

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

var update = flag.Bool("update", false, "rewrite the evaluator bits corpus instead of diffing against it")

// bitsPool is the region pool of the random trees: roots of odd sizes
// from below small-test's L1 to past origin2000's L2, and sub-regions
// of some, two levels deep.
func bitsPool() []*region.Region {
	var pool []*region.Region
	for i, g := range [][2]int64{{29, 12}, {301, 24}, {777, 40}, {3001, 8}, {20011, 16}, {123457, 24}, {999983, 12}} {
		r := region.New(string(rune('A'+i)), g[0], g[1])
		pool = append(pool, r)
		if i%2 == 1 {
			s := r.Sub(1, 3)
			pool = append(pool, s, r.Sub(2, 3), s.Sub(0, 2))
		}
	}
	return pool
}

// randomBitsPattern draws a compound pattern over the pool.
func randomBitsPattern(rng *rand.Rand, pool []*region.Region, depth int) pattern.Pattern {
	if depth >= 4 || (depth > 0 && rng.Intn(3) == 0) {
		r := pool[rng.Intn(len(pool))]
		switch rng.Intn(6) {
		case 0:
			return pattern.STrav{R: r}
		case 1:
			return pattern.RSTrav{R: r, Repeats: 1 + rng.Int63n(4), Dir: pattern.Direction(rng.Intn(2))}
		case 2:
			return pattern.RTrav{R: r}
		case 3:
			return pattern.RRTrav{R: r, Repeats: 1 + rng.Int63n(4)}
		case 4:
			return pattern.RAcc{R: r, Count: 1 + rng.Int63n(3*r.N)}
		default:
			return pattern.Nest{R: r, M: 1 + rng.Int63n(16), Inner: pattern.InnerKind(rng.Intn(3)),
				Count: 1 + rng.Int63n(64), Order: pattern.Order(rng.Intn(3))}
		}
	}
	kids := make([]pattern.Pattern, 2+rng.Intn(3))
	for i := range kids {
		kids[i] = randomBitsPattern(rng, pool, depth+1)
	}
	if rng.Intn(2) == 0 {
		return pattern.Seq(kids)
	}
	return pattern.Conc(kids)
}

func TestEvalBitsRandomTrees(t *testing.T) {
	const trees = 200
	hiers := []*hardware.Hierarchy{hardware.SmallTest(), hardware.Origin2000(), hardware.ModernX86()}
	rng := rand.New(rand.NewSource(20261019))
	pool := bitsPool()
	var got strings.Builder
	for i := 0; i < trees; i++ {
		prog, err := costir.Compile(randomBitsPattern(rng, pool, 0))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%d:", i)
		for _, h := range hiers {
			for _, m := range prog.Evaluate(h, nil) {
				fmt.Fprintf(&got, " %x/%x", math.Float64bits(m.Seq), math.Float64bits(m.Rnd))
			}
		}
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "evalbits_random.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing corpus (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d lines, evaluation produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("tree %d bits drifted:\n  golden: %s\n  got:    %s", i, wantLines[i], gotLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more drifted trees", bad-5)
	}
}
