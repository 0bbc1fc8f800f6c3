package costir

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/region"
)

// oracleRelated is the relatedness test the preorder intervals
// replaced: walk each region's parent chain looking for the other.
func oracleRelated(regs []RegionInfo, a, b int32) bool {
	for x := a; x >= 0; x = regs[x].Parent {
		if x == b {
			return true
		}
	}
	for x := b; x >= 0; x = regs[x].Parent {
		if x == a {
			return true
		}
	}
	return false
}

// checkRelated compares entry.related with the parent-chain walk on
// every pair of regions, or on a sample of pairs for large tables.
func checkRelated(t *testing.T, what string, prog *Program, rng *rand.Rand) {
	t.Helper()
	n := int32(len(prog.regions))
	check := func(a, b int32) {
		if got, want := prog.ents[a].related(&prog.ents[b]), oracleRelated(prog.regions, a, b); got != want {
			t.Fatalf("%s: related(%d %q, %d %q) = %v, parent-chain walk says %v",
				what, a, prog.regions[a].Name, b, prog.regions[b].Name, got, want)
		}
	}
	if n <= 300 {
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				check(a, b)
			}
		}
		return
	}
	for i := 0; i < 50000; i++ {
		a := rng.Int31n(n)
		// Half the samples pair a region with one of its relatives,
		// which uniform pairs in a wide forest would rarely hit.
		b := rng.Int31n(n)
		if i%2 == 0 {
			b = a
			for steps := rng.Intn(8); steps > 0 && prog.regions[b].Parent >= 0; steps-- {
				b = prog.regions[b].Parent
			}
			if i%4 == 0 {
				a, b = b, a
			}
		}
		check(a, b)
	}
}

// randomForestPattern touches a random forest of regions: a few roots,
// each split recursively by halving (as quick-sort does) or into up to
// 64 partitions (as partitioned joins do), with some identities built
// twice from separate pointers so deduplication folds them.
func randomForestPattern(rng *rand.Rand) pattern.Pattern {
	var seq pattern.Seq
	var grow func(r *region.Region, depth int)
	grow = func(r *region.Region, depth int) {
		if rng.Intn(3) > 0 {
			seq = append(seq, pattern.STrav{R: r})
		}
		if depth == 0 || r.N < 4 {
			return
		}
		m := int64(2)
		if rng.Intn(4) == 0 {
			m = 2 + rng.Int63n(63)
		}
		for j := int64(0); j < m && j < r.N; j++ {
			if rng.Intn(3) == 0 {
				continue
			}
			sub := r.Sub(j, m)
			if rng.Intn(5) == 0 {
				// A separately allocated region with the same identity.
				seq = append(seq, pattern.RTrav{R: r.Sub(j, m)})
			}
			grow(sub, depth-1)
		}
	}
	for i, roots := 0, 1+rng.Intn(4); i < roots; i++ {
		grow(region.New("R"+strconv.Itoa(i%3), 1<<(8+rng.Intn(12)), 8), 1+rng.Intn(12))
	}
	if len(seq) == 0 {
		seq = append(seq, pattern.STrav{R: region.New("E", 1, 1)})
	}
	return seq
}

// TestRelatedMatchesParentWalk holds the preorder-interval test to the
// parent-chain walk on random region forests and on the deep chains of
// the planner's quick-sort and partitioned-join patterns.
func TestRelatedMatchesParentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		prog := mustCompile(t, randomForestPattern(rng))
		checkRelated(t, "random forest "+strconv.Itoa(i), prog, rng)
	}
	u := region.New("U", 1<<22, 16)
	v := region.New("V", 1<<20, 16)
	w := region.New("W", 1<<20, 16)
	for _, tc := range []struct {
		name string
		p    pattern.Pattern
	}{
		{"quicksort-64MB", engine.QuickSortPattern(u, 32<<10)},
		{"quicksort-unpruned", engine.QuickSortPattern(region.New("S", 1<<9, 8), 0)},
		{"partitioned256", engine.PartitionedHashJoinPattern(u, v, w, 256)},
		{"partitioned-then-sorted", pattern.Seq{
			engine.PartitionedHashJoinPattern(v, w, u, 8),
			engine.QuickSortPattern(v.Sub(3, 8), 4<<10),
		}},
	} {
		checkRelated(t, tc.name, mustCompile(t, tc.p), rng)
	}
}

// TestCompileAllocsPerInstruction caps compilation's allocations per
// emitted instruction on the deepest program the planner routinely
// builds: a 64 MB quick-sort pruned at 32 KB (~2,000 ⊙ groups under ⊕
// nested 11 deep). The count depends only on the program, not on the
// machine. Re-rendering each nested ⊕ at every level and each region
// key twice cost 5.5 allocations per instruction; rendering each node
// and region key once, about one. Canonicalizing by structure into
// reused index arrays renders nothing and leaves only the program's
// own arrays: a handful of allocations for ~20,000 instructions.
func TestCompileAllocsPerInstruction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const maxPerInstr = 0.01
	p := engine.QuickSortPattern(region.New("U", 1<<22, 16), 32<<10)
	prog := mustCompile(t, p)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Compile(p); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(prog.NumInstructions()); per > maxPerInstr {
		t.Errorf("Compile(quicksort-64MB) makes %.0f allocations for %d instructions = %.2f each, want ≤ %.1f",
			allocs, prog.NumInstructions(), per, maxPerInstr)
	} else {
		t.Logf("Compile(quicksort-64MB): %.0f allocations for %d instructions = %.2f each",
			allocs, prog.NumInstructions(), per)
	}
}

// TestNameRanksFollowStringOrder: boundRow breaks resident-byte ties by
// name through the compiled name ranks, so ranks must order exactly as
// the names do, equal names sharing a rank.
func TestNameRanksFollowStringOrder(t *testing.T) {
	var p pattern.Seq
	for i, name := range []string{"b", "a", "ab", "a", "B", "", "a\x00", "ba"} {
		p = append(p, pattern.STrav{R: region.New(name, int64(100+i), 8)})
	}
	p = append(p, pattern.STrav{R: region.New("ab", 100, 8).Sub(1, 4)})
	prog := mustCompile(t, p)
	for a := range prog.regions {
		for b := range prog.regions {
			na, nb := prog.regions[a].Name, prog.regions[b].Name
			ra, rb := prog.ents[a].rank, prog.ents[b].rank
			if (na < nb) != (ra < rb) || (na == nb) != (ra == rb) {
				t.Errorf("names %q, %q have ranks %d, %d", na, nb, ra, rb)
			}
		}
	}
}

// TestReleaseEmptiesMaps: a released canonicalizer keeps no key of the
// pattern it served, whether its maps were cleared whole (a tree as
// large as any before) or key by key (a tree far smaller than the
// largest it has held), so a reused one cannot resolve a region of one
// pattern to an index of another.
func TestReleaseEmptiesMaps(t *testing.T) {
	big := engine.QuickSortPattern(region.New("U", 1<<22, 16), 32<<10)
	small := pattern.Seq{
		pattern.STrav{R: region.New("V", 1<<10, 8).Sub(1, 4)},
		pattern.RTrav{R: region.New("W", 1<<12, 8)},
	}
	for i, p := range []pattern.Pattern{big, small, big, small, small} {
		cz, err := canonicalize(p)
		if err != nil {
			t.Fatal(err)
		}
		cz.compile()
		byPtr, regIdx := cz.byPtr, cz.regIdx
		cz.release()
		if len(byPtr) != 0 || len(regIdx) != 0 {
			t.Errorf("pattern %d: released with %d pointer and %d identity keys left", i, len(byPtr), len(regIdx))
		}
	}
}
