package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/costmath"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// l1 returns the Origin2000 L1 parameters: C=32kB, B=32, #=1024.
func l1() levelParams {
	return paramsFor(hardware.Origin2000().Levels[0])
}

// l2 returns the Origin2000 L2 parameters: C=4MB, B=128, #=32768.
func l2() levelParams {
	return paramsFor(hardware.Origin2000().Levels[1])
}

func TestLinesPerItem(t *testing.T) {
	cases := []struct {
		u, b float64
		want float64
	}{
		{1, 32, 1},            // a byte never spans lines
		{32, 32, 1 + 31.0/32}, // a full line spans two in 31/32 alignments
		{33, 32, 2},           // ⌈33/32⌉=2, (32 mod 32)=0 extra
		{8, 32, 1 + 7.0/32},
		{64, 32, 2 + 31.0/32},
	}
	for _, tc := range cases {
		if got := costmath.LinesPerItem(tc.u, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("LinesPerItem(%g,%g) = %g, want %g", tc.u, tc.b, got, tc.want)
		}
	}
}

func TestSTravDenseCountsCoveredLines(t *testing.T) {
	// Eq. 4.2: w−u < B ⇒ misses = ⌈‖R‖/B⌉, independent of w and u.
	lp := l1()
	for _, w := range []int64{1, 8, 16, 32} {
		r := region.New("U", 65536/w, w) // ‖R‖ = 64kB
		got := costmath.STravCount(lp, r.N, r.W, float64(r.W))
		if got != 2048 {
			t.Errorf("w=%d: STravCount = %g, want 2048", w, got)
		}
	}
}

func TestSTravSparseCountsPerItem(t *testing.T) {
	// Eq. 4.3: w−u ≥ B ⇒ misses = n·(⌈u/B⌉ + ((u−1) mod B)/B).
	lp := l1()
	r := region.New("U", 1000, 256)
	got := costmath.STravCount(lp, r.N, r.W, 8)
	want := 1000 * (1 + 7.0/32)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("STravCount = %g, want %g", got, want)
	}
}

func TestRTravFitsEqualsSTrav(t *testing.T) {
	// Section 4.4 invariant: w−u<B ∧ ‖R‖≤C ⇒ r_trav misses = s_trav misses.
	lp := l1()
	r := region.New("U", 2048, 8) // 16kB < 32kB
	if s, rr := costmath.STravCount(lp, r.N, r.W, float64(r.W)), costmath.RTravCount(lp, r.N, r.W, float64(r.W)); s != rr {
		t.Errorf("s_trav %g != r_trav %g for cache-resident region", s, rr)
	}
}

func TestRTravExceedsSTravWhenOversized(t *testing.T) {
	// Section 4.4 invariant: w−u<B ∧ ‖R‖>C ⇒ r_trav misses > s_trav misses.
	lp := l1()
	r := region.New("U", 16384, 8) // 128kB > 32kB
	s, rr := costmath.STravCount(lp, r.N, r.W, float64(r.W)), costmath.RTravCount(lp, r.N, r.W, float64(r.W))
	if rr <= s {
		t.Errorf("r_trav %g should exceed s_trav %g for oversized region", rr, s)
	}
}

func TestRTravSparseEqualsSTrav(t *testing.T) {
	// Section 4.4 invariant: w−u ≥ B ⇒ equal misses regardless of order.
	lp := l1()
	r := region.New("U", 5000, 128)
	if s, rr := costmath.STravCount(lp, r.N, r.W, 8), costmath.RTravCount(lp, r.N, r.W, 8); s != rr {
		t.Errorf("sparse: s_trav %g != r_trav %g", s, rr)
	}
}

func TestSTravSizeInvariance(t *testing.T) {
	// Section 4.4: with w−u<B, s_trav depends only on ‖R‖.
	lp := l1()
	a := region.New("A", 8192, 8) // 64kB
	ref := costmath.STravCount(lp, a.N, a.W, float64(a.W))
	for _, w := range []int64{2, 4, 16, 32} {
		r := region.New("B", 65536/w, w)
		if got := costmath.STravCount(lp, r.N, r.W, float64(r.W)); got != ref {
			t.Errorf("w=%d: %g != reference %g", w, got, ref)
		}
	}
}

func TestRTravItemSizeInvarianceWhenCached(t *testing.T) {
	// Section 4.4: r_trav invariant to item size only while ‖R‖ fits.
	lp := l1()
	a := region.New("A", 2048, 8) // 16kB
	ref := costmath.RTravCount(lp, a.N, a.W, float64(a.W))
	r := region.New("B", 1024, 16) // same 16kB
	if got := costmath.RTravCount(lp, r.N, r.W, float64(r.W)); got != ref {
		t.Errorf("cached r_trav not size-invariant: %g vs %g", got, ref)
	}
}

func TestRSTravCases(t *testing.T) {
	lp := l1()
	small := region.New("S", 2048, 8) // 512 lines ≤ 1024
	big := region.New("B", 16384, 8)  // 4096 lines > 1024

	m0s := costmath.STravCount(lp, small.N, small.W, float64(small.W))
	if got := costmath.RSTravCount(lp, m0s, 10, pattern.Uni); got != m0s {
		t.Errorf("cached rs_trav = %g, want %g (only first sweep misses)", got, m0s)
	}

	m0b := costmath.STravCount(lp, big.N, big.W, float64(big.W))
	if got := costmath.RSTravCount(lp, m0b, 3, pattern.Uni); got != 3*m0b {
		t.Errorf("uni rs_trav = %g, want %g", got, 3*m0b)
	}
	wantBi := m0b + 2*(m0b-lp.L)
	if got := costmath.RSTravCount(lp, m0b, 3, pattern.Bi); got != wantBi {
		t.Errorf("bi rs_trav = %g, want %g", got, wantBi)
	}
	if costmath.RSTravCount(lp, m0b, 3, pattern.Bi) >= costmath.RSTravCount(lp, m0b, 3, pattern.Uni) {
		t.Error("bi-directional resweeps must be cheaper than uni-directional")
	}
}

func TestRRTravCases(t *testing.T) {
	lp := l1()
	small := region.New("S", 2048, 8)
	m0 := costmath.RTravCount(lp, small.N, small.W, float64(small.W))
	if got := costmath.RRTravCount(lp, m0, 5); got != m0 {
		t.Errorf("cached rr_trav = %g, want %g", got, m0)
	}

	big := region.New("B", 65536, 8) // 512kB
	m0b := costmath.RTravCount(lp, big.N, big.W, float64(big.W))
	got := costmath.RRTravCount(lp, m0b, 4)
	want := m0b + 3*(m0b-lp.L*lp.L/m0b)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("rr_trav = %g, want %g", got, want)
	}
	if got <= m0b {
		t.Error("repeated oversized random traversals must add misses")
	}
}

func TestRAccSmallCountTouchesFewLines(t *testing.T) {
	lp := l1()
	r := region.New("H", 1<<20, 16) // 16MB region
	// A single access touches about one line.
	got := costmath.RAccCount(lp, r.N, r.W, float64(r.W), 1)
	if got < 1 || got > 2 {
		t.Errorf("r_acc(1) = %g, want ≈1", got)
	}
}

func TestRAccSaturation(t *testing.T) {
	// With r >> n over a cache-resident region, misses stay ≈ |R|.
	lp := l1()
	r := region.New("H", 1024, 16) // 16kB, 512 lines ≤ 1024
	got := costmath.RAccCount(lp, r.N, r.W, float64(r.W), 1_000_000)
	lines := costmath.LinesCovered(r.Size(), lp.B)
	if math.Abs(got-lines) > 1 {
		t.Errorf("saturated cached r_acc = %g, want ≈%g", got, lines)
	}
}

func TestRAccOversizedGrowsWithCount(t *testing.T) {
	lp := l1()
	r := region.New("H", 1<<20, 16) // 16MB
	m1 := costmath.RAccCount(lp, r.N, r.W, float64(r.W), 1<<18)
	m2 := costmath.RAccCount(lp, r.N, r.W, float64(r.W), 1<<20)
	if m2 <= m1 {
		t.Errorf("oversized r_acc not monotone in count: %g then %g", m1, m2)
	}
}

func TestRAccNearMonotoneProperty(t *testing.T) {
	// The paper's dense/sparse interpolation for ℓ (Section 4.6) is not
	// strictly monotone in the access count: as the expected distinct
	// count D grows, weight shifts towards the lower "adjacent items"
	// bound ℓ̂, which can dip the estimate by a few percent mid-range.
	// We therefore assert near-monotonicity (bounded relative dips) plus
	// hard upper/lower bounds.
	lp := l1()
	f := func(na, ra uint16) bool {
		n := int64(na%10000) + 1
		r1 := int64(ra % 5000)
		if r1 == 0 {
			return true
		}
		reg := region.New("H", n, 16)
		m1 := costmath.RAccCount(lp, reg.N, reg.W, float64(reg.W), r1)
		m2 := costmath.RAccCount(lp, reg.N, reg.W, float64(reg.W), r1+500)
		if m2 < 0.75*m1 {
			return false
		}
		// Never fewer than one line, never more than one miss per access
		// plus the full region.
		cov := costmath.LinesCovered(reg.Size(), lp.B)
		return m1 >= 1 && m1 <= float64(r1)+cov+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNestRandomInnerReducesToRTrav(t *testing.T) {
	lp := l1()
	r := region.New("X", 8192, 8)
	n := pattern.Nest{R: r, M: 16, Inner: pattern.InnerRTrav, Order: pattern.OrderRandom}
	got := basicMisses(lp, n)
	want := costmath.RTravCount(lp, r.N, r.W, float64(r.W))
	if got.Rnd != want || got.Seq != 0 {
		t.Errorf("nest(r_trav) = %+v, want Rnd=%g", got, want)
	}
}

func TestNestRAccInnerAggregatesCounts(t *testing.T) {
	lp := l1()
	r := region.New("X", 8192, 8)
	n := pattern.Nest{R: r, M: 4, Inner: pattern.InnerRAcc, Count: 100, Order: pattern.OrderUni}
	got := basicMisses(lp, n)
	want := costmath.RAccCount(lp, r.N, r.W, float64(r.W), 400)
	if math.Abs(got.Rnd-want) > 1e-9 {
		t.Errorf("nest(r_acc) = %g, want %g", got.Rnd, want)
	}
}

func TestNestSequentialSmallMEqualsScan(t *testing.T) {
	// Case ⟨2⟩: few partitions, dense region: misses = |R| (like one scan).
	lp := l1()
	r := region.New("X", 1<<20, 8) // 8MB
	n := pattern.Nest{R: r, M: 16, Inner: pattern.InnerSTrav, Order: pattern.OrderRandom}
	got := basicMisses(lp, n)
	want := costmath.LinesCovered(r.Size(), lp.B)
	if got.Total() != want {
		t.Errorf("nest misses = %g, want %g", got.Total(), want)
	}
	if got.Rnd != want {
		t.Error("random global order must yield random-latency misses")
	}
}

func TestNestSequentialKneeAtCacheLines(t *testing.T) {
	// Case ⟨3⟩: once m exceeds #, misses jump (the Fig. 7d knee).
	lp := l1()
	r := region.New("X", 1<<20, 8) // 8MB, |R| = 262144 lines
	small := basicMisses(lp, pattern.Nest{R: r, M: 512, Inner: pattern.InnerSTrav, Order: pattern.OrderRandom})
	big := basicMisses(lp, pattern.Nest{R: r, M: 8192, Inner: pattern.InnerSTrav, Order: pattern.OrderRandom})
	if big.Total() <= small.Total()*1.5 {
		t.Errorf("no knee: m=512 → %g, m=8192 → %g", small.Total(), big.Total())
	}
}

func TestNestOrderEffect(t *testing.T) {
	// In the oversized case, bi-directional global order reuses # lines,
	// uni reuses none: uni must cost at least as much.
	lp := l1()
	r := region.New("X", 1<<20, 8)
	uni := basicMisses(lp, pattern.Nest{R: r, M: 8192, Inner: pattern.InnerSTrav, Order: pattern.OrderUni})
	bi := basicMisses(lp, pattern.Nest{R: r, M: 8192, Inner: pattern.InnerSTrav, Order: pattern.OrderBi})
	if uni.Total() < bi.Total() {
		t.Errorf("uni %g < bi %g", uni.Total(), bi.Total())
	}
}

func TestNestSparseCaseKindFollowsOrder(t *testing.T) {
	lp := l1()
	r := region.New("X", 4096, 256) // w−u ≥ B with u=8
	rnd := basicMisses(lp, pattern.Nest{R: r, M: 64, Inner: pattern.InnerSTrav, U: 8, Order: pattern.OrderRandom})
	seq := basicMisses(lp, pattern.Nest{R: r, M: 64, Inner: pattern.InnerSTrav, U: 8, Order: pattern.OrderUni})
	if rnd.Seq != 0 || rnd.Rnd == 0 {
		t.Errorf("random order should give random misses: %+v", rnd)
	}
	if seq.Rnd != 0 || seq.Seq == 0 {
		t.Errorf("uni order should give sequential misses: %+v", seq)
	}
	if rnd.Total() != seq.Total() {
		t.Errorf("counts must match across orders: %g vs %g", rnd.Total(), seq.Total())
	}
}

func TestSTravVariantClassification(t *testing.T) {
	lp := l1()
	r := region.New("U", 4096, 8)
	seq := basicMisses(lp, pattern.STrav{R: r})
	rnd := basicMisses(lp, pattern.STrav{R: r, NoSeq: true})
	if seq.Rnd != 0 || seq.Seq == 0 {
		t.Errorf("s_trav° misclassified: %+v", seq)
	}
	if rnd.Seq != 0 || rnd.Rnd == 0 {
		t.Errorf("s_trav~ misclassified: %+v", rnd)
	}
	if seq.Total() != rnd.Total() {
		t.Error("variants must have identical counts")
	}
}

func TestL2LineSizeMatters(t *testing.T) {
	// The same region covers 4x fewer 128-byte L2 lines than L1 lines.
	r := region.New("U", 65536, 8) // 512kB
	mL1 := costmath.STravCount(l1(), r.N, r.W, float64(r.W))
	mL2 := costmath.STravCount(l2(), r.N, r.W, float64(r.W))
	if mL1 != 4*mL2 {
		t.Errorf("L1 %g, L2 %g: want exactly 4x", mL1, mL2)
	}
}
