package cost

// Property-based tests (testing/quick) of the Section 4.4 invariants and
// general sanity conditions across randomized region geometries and all
// built-in hardware profiles.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/costmath"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// geometries derives a bounded random region from raw fuzz input.
func geometry(nRaw uint32, wRaw uint16) *region.Region {
	n := int64(nRaw%1_000_000) + 1
	w := int64(wRaw%512) + 1
	return region.New("R", n, w)
}

func forAllLevels(f func(lp levelParams) bool) func(uint32, uint16) bool {
	return func(nRaw uint32, wRaw uint16) bool {
		for _, mk := range hardware.Profiles() {
			for _, lvl := range mk().Levels {
				if !f(paramsFor(lvl)) {
					return false
				}
			}
		}
		return true
	}
}

func TestPropertySTravLowerBoundsRTrav(t *testing.T) {
	// Section 4.4: a random traversal never misses less than the
	// sequential traversal of the same region.
	f := func(nRaw uint32, wRaw uint16, uRaw uint16) bool {
		r := geometry(nRaw, wRaw)
		u := float64(pattern.Used(int64(uRaw)%(r.W+1), r))
		for _, mk := range hardware.Profiles() {
			for _, lvl := range mk().Levels {
				lp := paramsFor(lvl)
				if costmath.RTravCount(lp, r.N, r.W, u) < costmath.STravCount(lp, r.N, r.W, u)-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySparseCountsCoincide(t *testing.T) {
	// Section 4.4: with w−u ≥ B the traversal order is irrelevant.
	f := func(nRaw uint32, bIdx uint8) bool {
		n := int64(nRaw%100_000) + 1
		r := region.New("R", n, 4096) // wide items
		u := 8.0
		for _, mk := range hardware.Profiles() {
			for _, lvl := range mk().Levels {
				lp := paramsFor(lvl)
				if float64(r.W)-u < lp.B {
					continue
				}
				if math.Abs(costmath.STravCount(lp, r.N, r.W, u)-costmath.RTravCount(lp, r.N, r.W, u)) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMissesNonNegativeAndFinite(t *testing.T) {
	f := func(nRaw uint32, wRaw uint16, rep uint8, cnt uint16) bool {
		r := geometry(nRaw, wRaw)
		repeats := int64(rep%7) + 1
		count := int64(cnt) + 1
		pats := []pattern.Pattern{
			pattern.STrav{R: r},
			pattern.STrav{R: r, NoSeq: true},
			pattern.RSTrav{R: r, Repeats: repeats, Dir: pattern.Bi},
			pattern.RSTrav{R: r, Repeats: repeats, Dir: pattern.Uni},
			pattern.RTrav{R: r},
			pattern.RRTrav{R: r, Repeats: repeats},
			pattern.RAcc{R: r, Count: count},
			pattern.Nest{R: r, M: min64(r.N, 16), Inner: pattern.InnerSTrav, Order: pattern.OrderRandom},
		}
		for _, mk := range hardware.Profiles() {
			for _, lvl := range mk().Levels {
				lp := paramsFor(lvl)
				for _, p := range pats {
					m := basicMisses(lp, p)
					if m.Seq < 0 || m.Rnd < 0 ||
						math.IsNaN(m.Seq) || math.IsNaN(m.Rnd) ||
						math.IsInf(m.Seq, 0) || math.IsInf(m.Rnd, 0) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestPropertyRepeatsMonotone(t *testing.T) {
	// More repetitions never reduce misses.
	f := func(nRaw uint32, wRaw uint16, rep uint8) bool {
		r := geometry(nRaw, wRaw)
		k := int64(rep%10) + 1
		for _, mk := range hardware.Profiles() {
			for _, lvl := range mk().Levels {
				lp := paramsFor(lvl)
				m0 := costmath.STravCount(lp, r.N, r.W, float64(r.W))
				if costmath.RSTravCount(lp, m0, k+1, pattern.Uni) < costmath.RSTravCount(lp, m0, k, pattern.Uni)-1e-9 {
					return false
				}
				if costmath.RSTravCount(lp, m0, k+1, pattern.Bi) < costmath.RSTravCount(lp, m0, k, pattern.Bi)-1e-9 {
					return false
				}
				r0 := costmath.RTravCount(lp, r.N, r.W, float64(r.W))
				if costmath.RRTravCount(lp, r0, k+1) < costmath.RRTravCount(lp, r0, k)-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySeqAdditiveUpperBound(t *testing.T) {
	// Sequential composition never costs more than the sum of cold runs
	// (state can only help), and never less than the costliest part.
	m := MustNew(hardware.Origin2000())
	f := func(nRaw uint32, wRaw uint16) bool {
		r := geometry(nRaw, wRaw)
		p1 := pattern.STrav{R: r}
		p2 := pattern.RTrav{R: r}
		res1, err1 := m.Evaluate(p1)
		res2, err2 := m.Evaluate(p2)
		resSeq, err3 := m.Evaluate(pattern.Seq{p1, p2})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range resSeq.PerLevel {
			got := resSeq.PerLevel[i].Misses.Total()
			solo1 := res1.PerLevel[i].Misses.Total()
			solo2 := res2.PerLevel[i].Misses.Total()
			if got > solo1+solo2+1e-6 {
				return false
			}
			if got < solo1-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyConcAtLeastSoloMax(t *testing.T) {
	// Concurrent execution costs at least as much as the dearest member
	// alone (interference can only hurt).
	m := MustNew(hardware.Origin2000())
	f := func(nRaw uint32, wRaw uint16, rep uint8) bool {
		r := geometry(nRaw, wRaw)
		s := region.New("S", int64(nRaw%10_000)+1, 8)
		p1 := pattern.RSTrav{R: r, Repeats: int64(rep%4) + 1, Dir: pattern.Uni}
		p2 := pattern.STrav{R: s}
		res1, err1 := m.Evaluate(p1)
		resC, err2 := m.Evaluate(pattern.Conc{p1, p2})
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range resC.PerLevel {
			if resC.PerLevel[i].Misses.Total() < res1.PerLevel[i].Misses.Total()-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTimeMatchesMissScoring(t *testing.T) {
	// Eq. 3.1 is exactly Σ Ms·ls + Mr·lr for every evaluated pattern.
	m := MustNew(hardware.ModernX86())
	f := func(nRaw uint32, wRaw uint16, cnt uint16) bool {
		r := geometry(nRaw, wRaw)
		p := pattern.Seq{
			pattern.STrav{R: r},
			pattern.RAcc{R: r, Count: int64(cnt) + 1},
		}
		res, err := m.Evaluate(p)
		if err != nil {
			return false
		}
		var want float64
		for _, lr := range res.PerLevel {
			want += lr.Misses.Seq*lr.Level.SeqMissLatency + lr.Misses.Rnd*lr.Level.RndMissLatency
		}
		return math.Abs(res.MemoryTimeNS()-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
