package costmath

import (
	"math"
	"testing"

	"repro/internal/pattern"
)

// Levels used throughout: a small cache whose knees sit at test-sized
// regions, and a huge cache (the single-level-hierarchy case: nothing
// ever spills).
var (
	small = Level{C: 4096, B: 64, L: 64}
	huge  = Level{C: 1 << 40, B: 64, L: (1 << 40) / 64}
)

func TestMissesArithmetic(t *testing.T) {
	m := Misses{Seq: 2, Rnd: 3}
	if m.Total() != 5 {
		t.Errorf("Total = %g", m.Total())
	}
	if got := m.Add(Misses{Seq: 1, Rnd: 1}); got != (Misses{Seq: 3, Rnd: 4}) {
		t.Errorf("Add = %+v", got)
	}
	if got := m.Scale(2); got != (Misses{Seq: 4, Rnd: 6}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := Classify(7, true); got != (Misses{Seq: 7}) {
		t.Errorf("Classify(seq) = %+v", got)
	}
	if got := Classify(7, false); got != (Misses{Rnd: 7}) {
		t.Errorf("Classify(rnd) = %+v", got)
	}
}

func TestLevelScaled(t *testing.T) {
	half := small.Scaled(0.5)
	if half.C != small.C/2 || half.L != small.L/2 || half.B != small.B {
		t.Errorf("Scaled(0.5) = %+v", half)
	}
}

func TestLinesPerItem(t *testing.T) {
	if got := LinesPerItem(0, 64); got != 0 {
		t.Errorf("LinesPerItem(0) = %g", got)
	}
	// One byte always sits in exactly one line.
	if got := LinesPerItem(1, 64); got != 1 {
		t.Errorf("LinesPerItem(1) = %g", got)
	}
	// A full line: 1 line when aligned, 2 for the other 63 alignments:
	// ceil(64/64) + 63/64.
	if got, want := LinesPerItem(64, 64), 1+63.0/64; math.Abs(got-want) > 1e-12 {
		t.Errorf("LinesPerItem(64) = %g, want %g", got, want)
	}
	// Monotone in u.
	prev := 0.0
	for u := 1.0; u <= 512; u++ {
		if got := LinesPerItem(u, 64); got < prev {
			t.Fatalf("LinesPerItem not monotone at u=%g: %g < %g", u, got, prev)
		} else {
			prev = got
		}
	}
}

// Zero-size regions (n = 0) must predict zero misses everywhere.
func TestZeroSizeRegion(t *testing.T) {
	for _, lv := range []Level{small, huge} {
		if got := STravCount(lv, 0, 16, 16); got != 0 {
			t.Errorf("STravCount(n=0) = %g", got)
		}
		if got := RTravCount(lv, 0, 16, 16); got != 0 {
			t.Errorf("RTravCount(n=0) = %g", got)
		}
		if got := RAccCount(lv, 0, 16, 16, 10); got != 0 {
			t.Errorf("RAccCount(n=0) = %g", got)
		}
		if got := RAccLines(lv, 0, 16, 16, 10); got != 0 {
			t.Errorf("RAccLines(n=0) = %g", got)
		}
	}
}

// A region smaller than one cache line costs at most one (well, at
// most ⌈size/B⌉ = 1) compulsory miss per traversal.
func TestRegionSmallerThanCacheline(t *testing.T) {
	// 3 items of 8 bytes: 24 bytes inside one 64-byte line.
	if got := STravCount(small, 3, 8, 8); got != 1 {
		t.Errorf("STravCount(24B region) = %g, want 1", got)
	}
	if got := RTravCount(small, 3, 8, 8); got != 1 {
		t.Errorf("RTravCount(24B region) = %g, want 1", got)
	}
	// Even many random accesses into a one-line region touch one line.
	if got := RAccCount(small, 3, 8, 8, 1000); got != 1 {
		t.Errorf("RAccCount(24B region, 1000 accesses) = %g, want 1", got)
	}
	m := NestCounts(small, 3, 8, 8, 3, pattern.InnerSTrav, 0, pattern.OrderUni, false)
	if m.Total() != 1 {
		t.Errorf("NestCounts(24B region) = %+v, want total 1", m)
	}
}

// In a cache so large it never spills (the single-level hierarchy of a
// machine with one cache), repetition is free: repeated traversals
// cost exactly the first sweep, and sequential/random orders agree.
func TestHugeCacheRepetitionIsFree(t *testing.T) {
	const n, w = 100_000, 16
	m0 := STravCount(huge, n, w, w)
	if got := RSTravCount(huge, m0, 50, pattern.Uni); got != m0 {
		t.Errorf("RSTravCount(huge) = %g, want %g", got, m0)
	}
	if got := RSTravCount(huge, m0, 50, pattern.Bi); got != m0 {
		t.Errorf("RSTravCount(huge, bi) = %g, want %g", got, m0)
	}
	r0 := RTravCount(huge, n, w, w)
	if r0 != m0 {
		t.Errorf("RTravCount(huge) = %g, want %g (no capacity misses)", r0, m0)
	}
	if got := RRTravCount(huge, r0, 50); got != r0 {
		t.Errorf("RRTravCount(huge) = %g, want %g", got, r0)
	}
}

// Dense sequential traversals load each covered line exactly once
// (Eq. 4.2); sparse ones pay per item (Eq. 4.3).
func TestSTravDenseVsSparse(t *testing.T) {
	// Dense: w = 16 < B: |R|_B lines.
	if got, want := STravCount(small, 1024, 16, 16), LinesCovered(1024*16, 64); got != want {
		t.Errorf("dense STrav = %g, want %g", got, want)
	}
	// Sparse: w = 256, u = 8: every item loads its own line(s).
	if got, want := STravCount(small, 1024, 256, 8), 1024*LinesPerItem(8, 64); got != want {
		t.Errorf("sparse STrav = %g, want %g", got, want)
	}
	// Sparse random equals sparse sequential (Eq. 4.5).
	if got, want := RTravCount(small, 1024, 256, 8), STravCount(small, 1024, 256, 8); got != want {
		t.Errorf("sparse RTrav = %g, want %g", got, want)
	}
}

// Random traversals beyond the cache capacity pay extra over the
// sequential count (Eq. 4.4's revisit term).
func TestRTravCapacityPenalty(t *testing.T) {
	const n, w = 4096, 16 // 64 KiB region ≫ 4 KiB cache
	seq := STravCount(small, n, w, w)
	rnd := RTravCount(small, n, w, w)
	if rnd <= seq {
		t.Errorf("oversized RTrav %g not above STrav %g", rnd, seq)
	}
}

// Repetition formulas: uni-directional sweeps reload everything,
// bi-directional sweeps reuse the cache-resident tail.
func TestRSTravDirections(t *testing.T) {
	const n, w = 4096, 16
	m0 := STravCount(small, n, w, w)
	uni := RSTravCount(small, m0, 4, pattern.Uni)
	bi := RSTravCount(small, m0, 4, pattern.Bi)
	if uni != 4*m0 {
		t.Errorf("uni = %g, want %g", uni, 4*m0)
	}
	if !(bi < uni) {
		t.Errorf("bi %g not below uni %g", bi, uni)
	}
	if want := m0 + 3*(m0-small.L); bi != want {
		t.Errorf("bi = %g, want %g", bi, want)
	}
}

// Monotonicity in n: more items never predict fewer misses.
func TestMonotoneInN(t *testing.T) {
	const w = 16
	for _, lv := range []Level{small, huge} {
		var prevS, prevR, prevA float64
		for n := int64(0); n <= 1<<14; n += 128 {
			s := STravCount(lv, n, w, w)
			r := RTravCount(lv, n, w, w)
			a := RAccCount(lv, n, w, w, 1000)
			if s < prevS {
				t.Fatalf("STravCount not monotone in n at %d: %g < %g", n, s, prevS)
			}
			if r < prevR {
				t.Fatalf("RTravCount not monotone in n at %d: %g < %g", n, r, prevR)
			}
			if a < prevA-1e-9 {
				t.Fatalf("RAccCount not monotone in n at %d: %g < %g", n, a, prevA)
			}
			prevS, prevR, prevA = s, r, a
		}
	}
}

// Monotonicity in w: wider items never predict fewer misses (full-width
// use; the region grows with w).
func TestMonotoneInW(t *testing.T) {
	const n = 2048
	for _, lv := range []Level{small, huge} {
		var prevS, prevR float64
		for w := int64(8); w <= 1024; w *= 2 {
			s := STravCount(lv, n, w, float64(w))
			r := RTravCount(lv, n, w, float64(w))
			if s < prevS {
				t.Fatalf("STravCount not monotone in w at %d: %g < %g", w, s, prevS)
			}
			if r < prevR {
				t.Fatalf("RTravCount not monotone in w at %d: %g < %g", w, r, prevR)
			}
			prevS, prevR = s, r
		}
	}
}

// RSTrav/RRTrav are monotone in the repeat count.
func TestMonotoneInRepeats(t *testing.T) {
	const n, w = 4096, 16
	m0 := STravCount(small, n, w, w)
	r0 := RTravCount(small, n, w, w)
	var prevU, prevB, prevR float64
	for reps := int64(1); reps <= 32; reps++ {
		u := RSTravCount(small, m0, reps, pattern.Uni)
		b := RSTravCount(small, m0, reps, pattern.Bi)
		rr := RRTravCount(small, r0, reps)
		if u < prevU || b < prevB || rr < prevR {
			t.Fatalf("repetition not monotone at r=%d: %g/%g/%g after %g/%g/%g",
				reps, u, b, rr, prevU, prevB, prevR)
		}
		if b > u {
			t.Fatalf("bi %g above uni %g at r=%d", b, u, reps)
		}
		prevU, prevB, prevR = u, b, rr
	}
}

// RAcc is monotone in the access count and approaches the full-region
// bound.
func TestRAccMonotoneInCount(t *testing.T) {
	const n, w = 4096, 16
	var prev float64
	for count := int64(1); count <= 1<<16; count *= 2 {
		got := RAccCount(small, n, w, w, count)
		if got < prev-1e-9 {
			t.Fatalf("RAccCount not monotone in count at %d: %g < %g", count, got, prev)
		}
		prev = got
	}
	// The distinct-line estimate never exceeds the region's line count.
	if lines, cov := RAccLines(small, n, w, w, 1<<20), LinesCovered(n*w, small.B); lines > cov {
		t.Errorf("RAccLines %g exceeds covered lines %g", lines, cov)
	}
}

// The nest cases of Section 4.7: inner random patterns reduce to their
// flat equivalents; sequential inner patterns classify misses by the
// global order.
func TestNestCases(t *testing.T) {
	const n, w = 4096, 16
	// ⟨inner r_trav⟩ ≡ r_trav over R.
	got := NestCounts(small, n, w, w, 8, pattern.InnerRTrav, 0, pattern.OrderRandom, false)
	if want := RTravCount(small, n, w, w); got.Rnd != want || got.Seq != 0 {
		t.Errorf("nest(r_trav) = %+v, want rnd %g", got, want)
	}
	// ⟨inner r_acc⟩ ≡ r_acc with m·count accesses.
	got = NestCounts(small, n, w, w, 8, pattern.InnerRAcc, 100, pattern.OrderRandom, false)
	if want := RAccCount(small, n, w, w, 800); got.Rnd != want || got.Seq != 0 {
		t.Errorf("nest(r_acc) = %+v, want rnd %g", got, want)
	}
	// Sequential inner, uni order: base misses are sequential.
	got = NestCounts(small, n, w, w, 8, pattern.InnerSTrav, 0, pattern.OrderUni, false)
	if got.Seq == 0 {
		t.Errorf("nest(s_trav, uni) = %+v, want sequential base misses", got)
	}
	// Random order (or the ~ variant) declassifies them.
	got = NestCounts(small, n, w, w, 8, pattern.InnerSTrav, 0, pattern.OrderRandom, false)
	if got.Seq != 0 {
		t.Errorf("nest(s_trav, rnd) = %+v, want no sequential misses", got)
	}
	got = NestCounts(small, n, w, w, 8, pattern.InnerSTrav, 0, pattern.OrderUni, true)
	if got.Seq != 0 {
		t.Errorf("nest(s_trav~, uni) = %+v, want no sequential misses", got)
	}
	// A cross-traversal that fits (case ⟨2⟩) adds nothing over the
	// covered lines.
	got = NestCounts(small, 256, w, w, 4, pattern.InnerSTrav, 0, pattern.OrderUni, false)
	if want := LinesCovered(256*w, small.B); got.Total() != want {
		t.Errorf("fitting nest = %+v, want %g", got, want)
	}
	// A cross-traversal that exceeds the cache (case ⟨3⟩) pays random
	// reloads on top.
	wide := NestCounts(small, n, 128, 128, 512, pattern.InnerSTrav, 0, pattern.OrderUni, false)
	if wide.Rnd == 0 {
		t.Errorf("oversized cross-traversal = %+v, want random reload misses", wide)
	}
}

func TestGapSmallBoundary(t *testing.T) {
	// w − u < B decides dense vs sparse; check the exact boundary.
	if !GapSmall(64+15, 16, 64) { // gap 63 < 64
		t.Error("gap of B−1 not small")
	}
	if GapSmall(64+16, 16, 64) { // gap 64
		t.Error("gap of B treated as small")
	}
}
