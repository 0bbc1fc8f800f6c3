package costir

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

func mustCompile(t *testing.T, p pattern.Pattern) *Program {
	t.Helper()
	prog, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile(%s): %v", p, err)
	}
	return prog
}

func totalMisses(ms []Misses) float64 {
	var t float64
	for _, m := range ms {
		t += m.Total()
	}
	return t
}

func TestCompileRejectsInvalidPatterns(t *testing.T) {
	if _, err := Compile(pattern.Seq{}); err == nil {
		t.Error("Compile(empty Seq) succeeded, want error")
	}
	if _, err := Compile(pattern.STrav{R: nil}); err == nil {
		t.Error("Compile(nil region) succeeded, want error")
	}
	if _, err := CanonicalKey(pattern.Conc{}); err == nil {
		t.Error("CanonicalKey(empty Conc) succeeded, want error")
	}
}

// TestRejectsUndeclaredEnums: an order, direction or inner kind outside
// its declared constants renders as a declared one ("bi", "r_acc") but
// is priced as something else, so it must not reach a cache key.
func TestRejectsUndeclaredEnums(t *testing.T) {
	u := region.New("U", 1<<22, 64)
	for _, p := range []pattern.Pattern{
		pattern.Nest{R: u, M: 65536, Inner: pattern.InnerSTrav, Order: pattern.Order(7)},
		pattern.Nest{R: u, M: 64, Inner: pattern.InnerKind(9), Order: pattern.OrderRandom},
		pattern.RSTrav{R: u, Repeats: 3, Dir: pattern.Direction(5)},
		pattern.Seq{pattern.STrav{R: u}, pattern.RSTrav{R: u, Repeats: 3, Dir: pattern.Direction(-1)}},
	} {
		if err := pattern.Validate(p); err == nil {
			t.Errorf("Validate(%v) succeeded, want error", p)
		}
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%v) succeeded, want error", p)
		}
		if _, err := CanonicalKey(p); err == nil {
			t.Errorf("CanonicalKey(%v) succeeded, want error", p)
		}
	}
}

func TestCanonicalKeyMatchesCompile(t *testing.T) {
	u := region.New("U", 1000, 16)
	p := pattern.Seq{pattern.STrav{R: u}, pattern.RAcc{R: u, Count: 10}}
	key, err := CanonicalKey(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCompile(t, p).Canonical(); got != key {
		t.Errorf("CanonicalKey = %q, Compile().Canonical() = %q", key, got)
	}
}

// Canonicalization: ⊕ flattening, ⊙ sorting and bytes-used resolution
// must map cost-equivalent spellings to one canonical form.
func TestCanonicalEquivalences(t *testing.T) {
	u := region.New("U", 1000, 16)
	v := region.New("V", 2000, 8)
	w := region.New("W", 500, 32)

	cases := []struct {
		name string
		a, b pattern.Pattern
	}{
		{
			"seq-flattening",
			pattern.Seq{pattern.STrav{R: u}, pattern.Seq{pattern.STrav{R: v}, pattern.STrav{R: w}}},
			pattern.Seq{pattern.Seq{pattern.STrav{R: u}, pattern.STrav{R: v}}, pattern.STrav{R: w}},
		},
		{
			"conc-commutativity",
			pattern.Conc{pattern.STrav{R: u}, pattern.RTrav{R: v}, pattern.STrav{R: w}},
			pattern.Conc{pattern.STrav{R: w}, pattern.STrav{R: u}, pattern.RTrav{R: v}},
		},
		{
			"bytes-used-resolution",
			pattern.STrav{R: u},
			pattern.STrav{R: u, U: u.W},
		},
		{
			"nest-dont-care-fields",
			pattern.Nest{R: u, M: 8, Inner: pattern.InnerRTrav, Order: pattern.OrderBi, NoSeq: true, Count: 0},
			pattern.Nest{R: u, M: 8, Inner: pattern.InnerRTrav, Order: pattern.OrderRandom},
		},
	}
	for _, tc := range cases {
		ka, kb := mustCompile(t, tc.a).Canonical(), mustCompile(t, tc.b).Canonical()
		if ka != kb {
			t.Errorf("%s: canonical forms differ:\n  %q\n  %q", tc.name, ka, kb)
		}
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	u := region.New("U", 1000, 16)
	u2 := region.New("U", 1001, 16) // same name, different length
	sub := u.Sub(0, 2)
	flat := region.New(sub.Name, sub.N, sub.W) // same name+n+w, no parent

	cases := []struct {
		name string
		a, b pattern.Pattern
	}{
		{"repeat-count", pattern.RSTrav{R: u, Repeats: 2, Dir: pattern.Uni}, pattern.RSTrav{R: u, Repeats: 3, Dir: pattern.Uni}},
		{"direction", pattern.RSTrav{R: u, Repeats: 2, Dir: pattern.Uni}, pattern.RSTrav{R: u, Repeats: 2, Dir: pattern.Bi}},
		{"noseq-variant", pattern.STrav{R: u}, pattern.STrav{R: u, NoSeq: true}},
		{"region-length", pattern.STrav{R: u}, pattern.STrav{R: u2}},
		{"parent-chain", pattern.STrav{R: sub}, pattern.STrav{R: flat}},
		{"seq-vs-conc", pattern.Seq{pattern.STrav{R: u}, pattern.STrav{R: u2}}, pattern.Conc{pattern.STrav{R: u}, pattern.STrav{R: u2}}},
	}
	for _, tc := range cases {
		ka, kb := mustCompile(t, tc.a).Canonical(), mustCompile(t, tc.b).Canonical()
		if ka == kb {
			t.Errorf("%s: canonical forms collide: %q", tc.name, ka)
		}
	}
}

// Region deduplication (the ⊕-folding regression): two structurally
// identical regions allocated separately must fold into one dense
// index, so a repeated scan benefits from the first scan's cache
// leftovers exactly as if the caller had shared the pointer.
func TestRegionDedupAcrossPointers(t *testing.T) {
	h := hardware.Origin2000()
	// 64 kB: fits L2 (4 MB), so a second sequential scan of the *same*
	// region is (nearly) free at L2 once the first scan warmed it.
	shared := region.New("U", 4096, 16)
	r1 := region.New("U", 4096, 16)
	r2 := region.New("U", 4096, 16)

	sharedProg := mustCompile(t, pattern.Seq{pattern.STrav{R: shared}, pattern.STrav{R: shared}})
	dupProg := mustCompile(t, pattern.Seq{pattern.STrav{R: r1}, pattern.STrav{R: r2}})

	if sharedProg.Canonical() != dupProg.Canonical() {
		t.Fatalf("canonical forms differ:\n  %q\n  %q", sharedProg.Canonical(), dupProg.Canonical())
	}
	if got := dupProg.NumRegions(); got != 1 {
		t.Fatalf("NumRegions = %d, want 1 (deduplicated)", got)
	}

	sharedMisses := sharedProg.Evaluate(h, nil)
	dupMisses := dupProg.Evaluate(h, nil)
	for i := range sharedMisses {
		if sharedMisses[i] != dupMisses[i] {
			t.Errorf("level %d: shared-pointer misses %+v != duplicate-pointer misses %+v",
				i, sharedMisses[i], dupMisses[i])
		}
	}

	// And the fold is real: the second scan must be cheaper than the
	// first (cold) one, i.e. total < 2x a single scan.
	single := totalMisses(mustCompile(t, pattern.STrav{R: shared}).Evaluate(h, nil))
	if tot := totalMisses(dupMisses); tot >= 2*single {
		t.Errorf("duplicate-pointer ⊕ fold shows no cache reuse: total %.1f, single scan %.1f", tot, single)
	}
}

func TestRegionDedupKeepsDistinctIdentities(t *testing.T) {
	// Same name but different geometry, or different parent chains,
	// must stay distinct regions.
	u := region.New("U", 1000, 16)
	u2 := region.New("U", 2000, 16)
	sub := u.Sub(1, 4)
	prog := mustCompile(t, pattern.Seq{
		pattern.STrav{R: u}, pattern.STrav{R: u2}, pattern.STrav{R: sub},
	})
	// u, u2, sub, plus sub's parent chain entry (u, shared).
	if got := prog.NumRegions(); got != 3 {
		t.Errorf("NumRegions = %d, want 3", got)
	}
}

func TestParentChainRegistered(t *testing.T) {
	u := region.New("U", 1024, 16)
	sub := u.Sub(0, 4)
	// Only the sub-region is touched; its parent must still be in the
	// region table (residency inheritance needs the chain).
	prog := mustCompile(t, pattern.STrav{R: sub})
	regs := prog.Regions()
	if len(regs) != 2 {
		t.Fatalf("NumRegions = %d, want 2 (sub + parent)", len(regs))
	}
	var subInfo *RegionInfo
	for i := range regs {
		if regs[i].Name == sub.Name {
			subInfo = &regs[i]
		}
	}
	if subInfo == nil {
		t.Fatalf("sub-region %q not in table %+v", sub.Name, regs)
	}
	if subInfo.Parent < 0 || regs[subInfo.Parent].Name != "U" {
		t.Errorf("sub-region parent link broken: %+v", regs)
	}
}

func TestCanonicalQuotesRegionNames(t *testing.T) {
	// Hostile region names must not be able to forge another region's
	// canonical identity.
	a := region.New(`U"!1!1`, 1, 1)
	ka := mustCompile(t, pattern.STrav{R: a}).Canonical()
	b := region.New("U", 1, 1)
	kb := mustCompile(t, pattern.STrav{R: b}).Canonical()
	if ka == kb {
		t.Errorf("hostile name collides with honest name: %q", ka)
	}
	if !strings.Contains(ka, `\"`) {
		t.Errorf("hostile name not escaped in canonical form %q", ka)
	}
}

// The evaluator must be allocation-free once its pooled scratch has
// warmed up — the acceptance criterion of the IR path.
func TestEvaluateZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and defeats sync.Pool reuse")
	}
	h := hardware.Origin2000()
	u := region.New("U", 1<<20, 16)
	v := region.New("V", 1<<20, 16)
	w := region.New("W", 1<<20, 16)
	hreg := region.New("H", 1<<21, 16)
	p := pattern.Seq{
		pattern.Conc{pattern.STrav{R: v}, pattern.RTrav{R: hreg}},
		pattern.Conc{pattern.STrav{R: u}, pattern.RAcc{R: hreg, Count: u.N}, pattern.STrav{R: w}},
	}
	prog := mustCompile(t, p)
	dst := make([]Misses, 0, len(h.Levels))
	prog.Evaluate(h, dst) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		dst = prog.Evaluate(h, dst)
	})
	if allocs != 0 {
		t.Errorf("Evaluate allocates %.1f objects/op in steady state, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		prog.MemoryTimeNS(h)
	})
	if allocs != 0 {
		t.Errorf("MemoryTimeNS allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// Evaluators come from one process-wide pool and their scratch follows
// the resident rows and the ⊙ nesting, not the program: once the pool
// has evaluated a program, a freshly compiled program of the same shape
// — every revalidated recipe, every DP step geometry — evaluates
// without allocating.
func TestEvaluateFreshProgramZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations and defeats sync.Pool reuse")
	}
	h := hardware.ModernX86()
	n := int64(1 << 20)
	p := pattern.Seq{
		engine.PartitionedHashJoinPattern(region.New("U", n, 16), region.New("V", n, 16), region.New("W", n, 16), 256),
		engine.QuickSortPattern(region.New("S", n, 16), 32<<10),
	}
	const runs = 20
	progs := make([]*Program, runs+2) // AllocsPerRun adds one warm-up run
	for i := range progs {
		progs[i] = mustCompile(t, p)
	}
	dst := make([]Misses, 0, len(h.Levels))
	want := progs[0].Evaluate(h, nil) // warm the pool
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		dst = progs[next].Evaluate(h, dst)
		next++
	})
	if allocs != 0 {
		t.Errorf("evaluating a fresh program allocates %.1f objects/op with the pool warm, want 0", allocs)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("level %d: fresh program gives %+v, first program %+v", i, dst[i], want[i])
		}
	}
}

// Concurrent evaluation of one shared Program must be race-free and
// deterministic, including across hierarchies with different level
// counts (the pooled scratch must not leak state between runs).
func TestConcurrentEvaluate(t *testing.T) {
	u := region.New("U", 1<<18, 16)
	v := region.New("V", 1<<18, 16)
	hreg := region.New("H", 1<<19, 16)
	w := region.New("W", 1<<18, 16)
	prog := mustCompile(t, pattern.Seq{
		pattern.Conc{pattern.STrav{R: v}, pattern.RTrav{R: hreg}},
		pattern.Conc{pattern.STrav{R: u}, pattern.RAcc{R: hreg, Count: u.N}, pattern.STrav{R: w}},
	})
	hiers := []*hardware.Hierarchy{hardware.Origin2000(), hardware.SmallTest(), hardware.ModernX86()}
	want := make([][]Misses, len(hiers))
	for i, h := range hiers {
		want[i] = prog.Evaluate(h, nil)
	}

	const goroutines = 8
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]Misses, 0, 8)
			for i := 0; i < rounds; i++ {
				hi := (g + i) % len(hiers)
				dst = prog.Evaluate(hiers[hi], dst)
				for li := range dst {
					if dst[li] != want[hi][li] {
						errc <- errMismatch(hi, li)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// Concurrent compiles share the canonicalizer free list: goroutines
// compiling and keying different patterns at once, with trees of very
// different sizes passing canonicalizers back and forth, must each get
// exactly the program and key a lone compile gives.
func TestConcurrentCompile(t *testing.T) {
	u := region.New("U", 1<<16, 16)
	pats := []pattern.Pattern{
		engine.QuickSortPattern(u, 4<<10),
		pattern.Seq{pattern.STrav{R: u.Sub(1, 3)}, pattern.RTrav{R: region.New("V", 1<<12, 8)}},
		engine.PartitionedHashJoinPattern(u, region.New("V", 1<<14, 16), region.New("W", 1<<15, 16), 16),
		pattern.Conc{pattern.RAcc{R: u, Count: 100}, pattern.STrav{R: u}},
	}
	h := hardware.ModernX86()
	wantKey := make([]string, len(pats))
	wantMiss := make([][]Misses, len(pats))
	for i, p := range pats {
		prog := mustCompile(t, p)
		wantKey[i], wantMiss[i] = prog.Canonical(), prog.Evaluate(h, nil)
	}

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(pats)
				key, err := CanonicalKey(pats[k])
				if err != nil {
					errc <- err
					return
				}
				prog, err := Compile(pats[k])
				if err != nil {
					errc <- err
					return
				}
				if key != wantKey[k] || prog.Canonical() != wantKey[k] ||
					!slices.Equal(prog.Evaluate(h, nil), wantMiss[k]) {
					errc <- fmt.Errorf("goroutine %d, round %d: pattern %d compiled differently", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

type mismatchError struct{ hier, level int }

func errMismatch(h, l int) error { return mismatchError{h, l} }
func (e mismatchError) Error() string {
	return "concurrent Evaluate diverged from serial result"
}

func TestProgramStats(t *testing.T) {
	u := region.New("U", 1000, 16)
	v := region.New("V", 1000, 16)
	prog := mustCompile(t, pattern.Seq{
		pattern.Conc{pattern.STrav{R: u}, pattern.STrav{R: v}},
		pattern.STrav{R: u},
	})
	if got := prog.NumBasics(); got != 3 {
		t.Errorf("NumBasics = %d, want 3", got)
	}
	// 3 basics + opConc + opNext + opEnd
	if got := prog.NumInstructions(); got != 6 {
		t.Errorf("NumInstructions = %d, want 6", got)
	}
	if got := prog.NumRegions(); got != 2 {
		t.Errorf("NumRegions = %d, want 2", got)
	}
}
