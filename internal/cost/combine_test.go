package cost

import (
	"math"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

func evalL1(t *testing.T, p pattern.Pattern) Misses {
	t.Helper()
	m := MustNew(hardware.Origin2000())
	res, err := m.Evaluate(p)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return res.PerLevel[0].Misses
}

func TestSeqSecondScanOfCachedRegionIsFree(t *testing.T) {
	// Eq. 5.1/5.2: a region that fits in the cache is free on re-traversal.
	r := region.New("U", 2048, 8) // 16kB ≤ 32kB L1
	single := evalL1(t, pattern.STrav{R: r})
	double := evalL1(t, pattern.Seq{pattern.STrav{R: r}, pattern.STrav{R: r}})
	if double.Total() != single.Total() {
		t.Errorf("second scan of cached region not free: %g vs %g", double.Total(), single.Total())
	}
}

func TestSeqSecondScanOfOversizedRegionPaysFull(t *testing.T) {
	r := region.New("U", 16384, 8) // 128kB > 32kB
	single := evalL1(t, pattern.STrav{R: r})
	double := evalL1(t, pattern.Seq{pattern.STrav{R: r}, pattern.STrav{R: r}})
	if double.Total() != 2*single.Total() {
		t.Errorf("oversized rescan should pay full: %g vs 2x%g", double.Total(), single.Total())
	}
}

func TestSeqRandomPatternPartialBenefit(t *testing.T) {
	// Eq. 5.1: a random traversal after a scan of the same oversized
	// region benefits proportionally to the cached fraction.
	r := region.New("U", 8192, 8) // 64kB: fraction 0.5 cached in 32kB L1
	cold := evalL1(t, pattern.RTrav{R: r})
	warm := evalL1(t, pattern.Seq{pattern.STrav{R: r}, pattern.RTrav{R: r}})
	scan := evalL1(t, pattern.STrav{R: r})
	gotRT := warm.Total() - scan.Total()
	want := cold.Total() * 0.5
	if math.Abs(gotRT-want) > 1e-9 {
		t.Errorf("warm r_trav = %g, want %g (half of cold %g)", gotRT, want, cold.Total())
	}
}

func TestSeqDifferentRegionsNoBenefit(t *testing.T) {
	a := region.New("A", 2048, 8)
	b := region.New("B", 2048, 8)
	sum := evalL1(t, pattern.STrav{R: a}).Total() + evalL1(t, pattern.STrav{R: b}).Total()
	both := evalL1(t, pattern.Seq{pattern.STrav{R: a}, pattern.STrav{R: b}})
	if both.Total() != sum {
		t.Errorf("unrelated regions interfered: %g vs %g", both.Total(), sum)
	}
}

func TestStateMergeKeepsSiblingResident(t *testing.T) {
	// Extension test: A and B together fit in the cache; after scanning
	// A then B, rescanning A must still be free (the paper leaves this
	// for future research; we retain what fits).
	a := region.New("A", 1024, 8) // 8kB
	b := region.New("B", 1024, 8) // 8kB; both fit in 32kB
	p := pattern.Seq{
		pattern.STrav{R: a},
		pattern.STrav{R: b},
		pattern.STrav{R: a},
	}
	got := evalL1(t, p)
	want := evalL1(t, pattern.STrav{R: a}).Total() + evalL1(t, pattern.STrav{R: b}).Total()
	if got.Total() != want {
		t.Errorf("sibling region evicted although it fits: %g vs %g", got.Total(), want)
	}
}

func TestStateMergeEvictsWhenFull(t *testing.T) {
	// B alone fills the cache: rescanning A afterwards pays again.
	a := region.New("A", 1024, 8) // 8kB
	b := region.New("B", 8192, 8) // 64kB > 32kB L1
	p := pattern.Seq{
		pattern.STrav{R: a},
		pattern.STrav{R: b},
		pattern.STrav{R: a},
	}
	got := evalL1(t, p)
	want := 2*evalL1(t, pattern.STrav{R: a}).Total() + evalL1(t, pattern.STrav{R: b}).Total()
	if got.Total() != want {
		t.Errorf("A should be evicted by oversized B: got %g want %g", got.Total(), want)
	}
}

func TestAncestorResidencyBenefitsSubRegions(t *testing.T) {
	r := region.New("U", 2048, 8) // 16kB, fits L1
	a, b := r.Halves()
	p := pattern.Seq{
		pattern.STrav{R: r},
		pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}},
	}
	got := evalL1(t, p)
	want := evalL1(t, pattern.STrav{R: r})
	if got.Total() != want.Total() {
		t.Errorf("halves of cached parent not free: %g vs %g", got.Total(), want.Total())
	}
}

func TestConcDividesCache(t *testing.T) {
	// Two concurrent repetitive traversals, each of half the cache size:
	// alone each would be fully cached (first sweep only); together each
	// gets half the cache and still fits exactly; make them 3/4 cache so
	// together they thrash.
	a := region.New("A", 3072, 8) // 24kB
	b := region.New("B", 3072, 8) // 24kB
	pa := pattern.RSTrav{R: a, Repeats: 4, Dir: pattern.Uni}
	pb := pattern.RSTrav{R: b, Repeats: 4, Dir: pattern.Uni}
	solo := evalL1(t, pa).Total() + evalL1(t, pb).Total()
	conc := evalL1(t, pattern.Conc{pa, pb}).Total()
	if conc <= solo {
		t.Errorf("concurrent thrashing not modeled: conc %g ≤ solo %g", conc, solo)
	}
}

func TestConcStreamsDoNotStealCache(t *testing.T) {
	// A pure stream (footprint 1) next to a repetitive traversal must not
	// halve the traversal's cache: the rs_trav still fits.
	a := region.New("A", 3584, 8)   // 28kB ≤ 32kB
	s := region.New("S", 100000, 8) // big stream
	pa := pattern.RSTrav{R: a, Repeats: 4, Dir: pattern.Uni}
	conc := evalL1(t, pattern.Conc{pa, pattern.STrav{R: s}}).Total()
	want := evalL1(t, pa).Total() + evalL1(t, pattern.STrav{R: s}).Total()
	rel := math.Abs(conc-want) / want
	if rel > 0.02 {
		t.Errorf("stream stole cache from traversal: conc %g, want ≈%g", conc, want)
	}
}

func TestFootprints(t *testing.T) {
	lp := l1()
	r := region.New("U", 8192, 8) // 64kB, 2048 L1 lines
	if got := footprint(lp, pattern.STrav{R: r}); got != 1 {
		t.Errorf("s_trav footprint = %g, want 1", got)
	}
	if got := footprint(lp, pattern.RTrav{R: r}); got != 2048 {
		t.Errorf("dense r_trav footprint = %g, want 2048", got)
	}
	sparse := region.New("S", 100, 256)
	if got := footprint(lp, pattern.RTrav{R: sparse, U: 8}); got != 1 {
		t.Errorf("sparse r_trav footprint = %g, want 1", got)
	}
	if got := footprint(lp, pattern.RSTrav{R: r, Repeats: 2, Dir: pattern.Bi}); got != 2048 {
		t.Errorf("rs_trav footprint = %g", got)
	}
	seq := pattern.Seq{pattern.RTrav{R: r}, pattern.STrav{R: r}}
	if got := footprint(lp, seq); got != 2048 {
		t.Errorf("Seq footprint = %g, want max 2048", got)
	}
	conc := pattern.Conc{pattern.RTrav{R: r}, pattern.RTrav{R: r}}
	if got := footprint(lp, conc); got != 4096 {
		t.Errorf("Conc footprint = %g, want sum 4096", got)
	}
}

func TestEvaluateValidates(t *testing.T) {
	m := MustNew(hardware.Origin2000())
	if _, err := m.Evaluate(pattern.Seq{}); err == nil {
		t.Error("empty Seq accepted")
	}
	if _, err := m.EvaluateTree(pattern.Seq{}); err == nil {
		t.Error("EvaluateTree accepted an empty Seq")
	}
}

func TestMemoryTimeScoring(t *testing.T) {
	// Eq. 3.1: T_mem = Σ Ms·ls + Mr·lr, verified against hand-computed
	// numbers for a single scan.
	h := hardware.Origin2000()
	m := MustNew(h)
	r := region.New("U", 4096, 8) // 32kB: 1024 L1 lines, 256 L2 lines, 2 pages
	res, err := m.Evaluate(pattern.STrav{R: r})
	if err != nil {
		t.Fatal(err)
	}
	want := 1024*8.0 + 256*188.0 + 2*228.0
	if got := res.MemoryTimeNS(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MemoryTimeNS = %g, want %g", got, want)
	}
	tot, err := m.TotalTimeNS(pattern.STrav{R: r}, 1000)
	if err != nil || math.Abs(tot-(want+1000)) > 1e-9 {
		t.Errorf("TotalTimeNS = %g (err %v), want %g", tot, err, want+1000)
	}
}

func TestResultLevelLookup(t *testing.T) {
	m := MustNew(hardware.Origin2000())
	res, _ := m.Evaluate(pattern.STrav{R: region.New("U", 4096, 8)})
	if _, ok := res.Level("L2"); !ok {
		t.Error("L2 result missing")
	}
	if _, ok := res.Level("L9"); ok {
		t.Error("phantom level found")
	}
}

func TestStateClone(t *testing.T) {
	r := region.New("U", 10, 8)
	s := state{r: 0.5}
	c := s.clone()
	c[r] = 0.9
	if s[r] != 0.5 {
		t.Error("clone aliases the original")
	}
}

func TestTLBLevelModeledLikeCache(t *testing.T) {
	// A scan of 10 pages must predict 10 TLB misses.
	m := MustNew(hardware.Origin2000())
	r := region.New("U", 10*2048, 8) // 10 x 16kB pages
	res, _ := m.Evaluate(pattern.STrav{R: r})
	tlb, _ := res.Level("TLB")
	if tlb.Misses.Total() != 10 {
		t.Errorf("TLB misses = %g, want 10", tlb.Misses.Total())
	}
}
