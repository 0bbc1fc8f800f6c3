package cachemodel

import (
	"math"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/costmath"
	"repro/internal/driver"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/vmem"
	"repro/internal/workload"
)

// fullAssoc returns a single-level fully associative hierarchy with the
// given capacity and line size.
func fullAssoc(capacity, line int64) *hardware.Hierarchy {
	return &hardware.Hierarchy{
		Name:    "fa-test",
		ClockNS: 1,
		Levels: []hardware.Level{{
			Name:           "L",
			Capacity:       capacity,
			LineSize:       line,
			Associativity:  0,
			SeqMissLatency: 1,
			RndMissLatency: 2,
		}},
	}
}

// replay runs p through the driver on a real simulator and returns the
// per-level stats.
func replay(t *testing.T, h *hardware.Hierarchy, p pattern.Pattern) []cachesim.Stats {
	t.Helper()
	sim := cachesim.New(h)
	mem := vmem.New(64 << 20)
	mem.SetObserver(sim)
	for _, r := range p.Regions() {
		materialize(mem, rootOf(r))
	}
	sim.Reset()
	driver.Run(mem, workload.NewRNG(7), p)
	return sim.AllStats()
}

// materialize allocates backing storage for a root region (idempotent
// per distinct root: callers pass each root once).
func materialize(mem *vmem.Memory, root *region.Region) {
	if root.Base != 0 {
		return
	}
	root.Base = int64(mem.Alloc(root.Size(), 64))
}

func TestFullyAssociativeSTravExact(t *testing.T) {
	// 64-line FA cache; a repeated uni-directional sweep over 128 lines
	// misses every reference (distance = footprint = 128 ≥ 64), a sweep
	// over 32 lines only pays its cold misses. The analytical totals
	// must equal the trace exactly — this geometry has no approximation.
	h := fullAssoc(64*32, 32)
	m := MustNew(h)
	for _, tc := range []struct {
		name  string
		lines int64
	}{
		{"fits", 32},
		{"thrashes", 128},
	} {
		r := region.New("U"+tc.name, tc.lines*4, 8) // 4 items per 32 B line
		p := pattern.RSTrav{R: r, Repeats: 3, Dir: pattern.Uni}
		res, err := priceOnce(m, p)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Stats(0)
		want := replay(t, h, p)[0]
		if got.Misses() != want.Misses() {
			t.Errorf("%s: analytical misses %d, trace %d", tc.name, got.Misses(), want.Misses())
		}
		if got.Accesses != want.Accesses {
			t.Errorf("%s: analytical accesses %d, trace %d", tc.name, got.Accesses, want.Accesses)
		}
	}
}

func TestFAExpectationsMatchCostmath(t *testing.T) {
	// On a fully associative level the analytical expectations must
	// reproduce the paper's closed forms (costmath Eqs. 4.2–4.8).
	h := fullAssoc(64*32, 32)
	m := MustNew(h)
	lv := costmath.Level{C: 64 * 32, B: 32, L: 64}
	r := region.New("U", 512, 8) // 4 kB = 128 lines, twice the cache

	check := func(name string, p pattern.Pattern, want float64) {
		t.Helper()
		res, err := priceOnce(m, p)
		if err != nil {
			t.Fatal(err)
		}
		seq, rnd := res.MissesNS(0)
		if math.Abs(seq+rnd-want) > 0.02*want+1 {
			t.Errorf("%s: analytical total %.1f, costmath %.1f", name, seq+rnd, want)
		}
	}

	m0 := costmath.STravCount(lv, r.N, r.W, float64(r.W))
	check("s_trav", pattern.STrav{R: r}, m0)
	check("rs_trav uni", pattern.RSTrav{R: r, Repeats: 4, Dir: pattern.Uni},
		costmath.RSTravCount(lv, m0, 4, pattern.Uni))
	check("r_acc", pattern.RAcc{R: r, Count: 2048},
		costmath.RAccCount(lv, r.N, r.W, float64(r.W), 2048))
}

func TestRRTravTracksTrace(t *testing.T) {
	// rr_trav is where the stack-distance view and the paper's Eq. 4.7
	// heuristic legitimately differ (the paper charges re-sweep misses
	// with the L²/m0 survivor count; the distance model integrates the
	// quadratic survivor distribution). Anchor against the replayed
	// trace instead: the analytical expectation must stay within 25% of
	// the simulator for a thrashing and a fitting footprint.
	h := fullAssoc(64*32, 32)
	m := MustNew(h)
	for _, lines := range []int64{32, 128} {
		r := region.New("Urr", lines*4, 8)
		p := pattern.RRTrav{R: r, Repeats: 4}
		res, err := priceOnce(m, p)
		if err != nil {
			t.Fatal(err)
		}
		seq, rnd := res.MissesNS(0)
		got := seq + rnd
		want := float64(replay(t, h, p)[0].Misses())
		if math.Abs(got-want) > 0.25*want+1 {
			t.Errorf("%d lines: analytical misses %.1f, trace %.1f", lines, got, want)
		}
	}
}

func TestAssociativityCorrectionDirection(t *testing.T) {
	// The same repeated random traversal must miss at least as often on
	// a direct-mapped cache as on the fully associative cache of equal
	// capacity (conflict misses only add), and the direct-mapped excess
	// must be visible for a footprint near capacity.
	faH := fullAssoc(64*32, 32)
	dmH := fullAssoc(64*32, 32)
	dmH.Levels[0].Associativity = 1
	fa, dm := MustNew(faH), MustNew(dmH)

	r := region.New("U", 240, 8) // 60 lines: fits FA, conflicts DM
	p := pattern.RRTrav{R: r, Repeats: 8}
	faRes, err := priceOnce(fa, p)
	if err != nil {
		t.Fatal(err)
	}
	dmRes, err := priceOnce(dm, p)
	if err != nil {
		t.Fatal(err)
	}
	faSeq, faRnd := faRes.MissesNS(0)
	dmSeq, dmRnd := dmRes.MissesNS(0)
	faMiss, dmMiss := faSeq+faRnd, dmSeq+dmRnd
	if dmMiss < faMiss {
		t.Errorf("direct-mapped misses %.1f below fully associative %.1f", dmMiss, faMiss)
	}
	if dmMiss < faMiss*1.5 {
		t.Errorf("direct-mapped misses %.1f show no conflict excess over FA %.1f", dmMiss, faMiss)
	}
}

func TestMissProbMonotonicAndBounded(t *testing.T) {
	g := geom{
		spec: hardware.Level{Capacity: 1 << 10, LineSize: 32, Associativity: 2},
		lv:   costmath.Level{C: 1 << 10, B: 32, L: 32},
		ways: 2, sets: 16,
	}
	prev := -1.0
	for d := 0.0; d <= 256; d += 0.5 {
		p := missProb(g, d)
		if p < 0 || p > 1 {
			t.Fatalf("missProb(%g) = %g out of [0,1]", d, p)
		}
		if p < prev {
			t.Fatalf("missProb not monotone at d=%g: %g < %g", d, p, prev)
		}
		prev = p
	}
	if missProb(g, 1) != 0 {
		t.Errorf("distance below associativity must always hit")
	}
	if p := missProb(g, 1e6); p != 1 {
		t.Errorf("huge distance must miss, got %g", p)
	}
}

func TestPriceRejectsInvalidPattern(t *testing.T) {
	m := MustNew(hardware.SmallTest())
	if _, err := priceOnce(m, pattern.STrav{}); err == nil {
		t.Fatal("expected error for pattern without region")
	}
}

func TestNewRejectsInvalidHierarchy(t *testing.T) {
	h := hardware.SmallTest()
	h.Levels[0].LineSize = 48 // not a power of two
	if _, err := New(h); err == nil {
		t.Fatal("expected error for non-power-of-two line size")
	}
}
