package cachemodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/workload"
)

// randHierarchy draws a 1–2 data-level hierarchy (plus an optional TLB)
// with geometry sampled from the space Level.Validate accepts: power-of-
// two line sizes and set counts, associativity dividing the line count.
// assocs constrains the associativity draw (0 = fully associative).
func randHierarchy(rng *workload.RNG, assocs []int) *hardware.Hierarchy {
	lineSizes := []int64{16, 32, 64, 128}

	mkLevel := func(name string, minLines int64) hardware.Level {
		line := lineSizes[rng.Intn(int64(len(lineSizes)))]
		lines := minLines << rng.Intn(4) // minLines … 8·minLines
		return hardware.Level{
			Name:           name,
			Capacity:       lines * line,
			LineSize:       line,
			Associativity:  assocs[rng.Intn(int64(len(assocs)))],
			SeqMissLatency: 1 + float64(rng.Intn(8)),
			RndMissLatency: 10 + float64(rng.Intn(30)),
		}
	}

	h := &hardware.Hierarchy{Name: "prop", ClockNS: 1}
	l1 := mkLevel("L1", 16)
	h.Levels = append(h.Levels, l1)
	if rng.Intn(2) == 0 {
		l2 := mkLevel("L2", 128)
		// Keep the hierarchy monotone (capacity and line size widen outwards).
		if l2.LineSize < l1.LineSize {
			l2.LineSize = l1.LineSize
		}
		for l2.Capacity <= l1.Capacity {
			l2.Capacity *= 2
		}
		h.Levels = append(h.Levels, l2)
	}
	if rng.Intn(2) == 0 {
		pg := int64(1024)
		h.Levels = append(h.Levels, hardware.Level{
			Name: "TLB", TLB: true,
			Capacity: (8 << rng.Intn(3)) * pg, LineSize: pg,
			SeqMissLatency: 20, RndMissLatency: 20,
		})
	}
	return h
}

// randPattern draws one basic access pattern over a region whose
// footprint brackets the innermost capacity (fits / borderline / thrashes).
func randPattern(rng *workload.RNG, h *hardware.Hierarchy) pattern.Pattern {
	capLines := h.Levels[0].Lines()
	lines := capLines/2 + rng.Intn(3*capLines) // 0.5× … 3.5× capacity
	b := h.Levels[0].LineSize
	n := lines * (b / 8)
	r := region.New(fmt.Sprintf("P%d", rng.Intn(1000)), n, 8)

	switch rng.Intn(4) {
	case 0:
		return pattern.STrav{R: r}
	case 1:
		return pattern.RSTrav{R: r, Repeats: 2 + rng.Intn(3), Dir: pattern.Uni}
	case 2:
		return pattern.RRTrav{R: r, Repeats: 2 + rng.Intn(3)}
	default:
		return pattern.RAcc{R: r, Count: n / 2}
	}
}

// TestPropertyAnalyticalTracksTraceFA replays randomized basic patterns
// on randomized fully associative geometries through both backends. On
// FA LRU the stack-distance model is an honest expectation of the
// simulator, so the per-level miss totals must stay inside a tight band
// and the innermost access count must match exactly (both backends
// count the same references). Deeper-level accesses are the inner
// level's misses — an expectation versus one trace realization — so
// they share the miss band rather than exact equality.
func TestPropertyAnalyticalTracksTraceFA(t *testing.T) {
	rng := workload.NewRNG(20260808)
	const trials = 40
	for i := 0; i < trials; i++ {
		h := randHierarchy(rng, []int{0})
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid hierarchy: %v", i, err)
		}
		p := randPattern(rng, h)
		m, err := New(h)
		if err != nil {
			t.Fatalf("trial %d: New: %v", i, err)
		}
		res, err := priceOnce(m, p)
		if err != nil {
			t.Fatalf("trial %d: Price(%s): %v", i, p, err)
		}
		traced := replay(t, h, p)
		for li := range h.Levels {
			got := res.Stats(li)
			want := traced[li]
			if li == 0 && got.Accesses != want.Accesses {
				t.Errorf("trial %d %s on %s: analytical L1 accesses %d, trace %d",
					i, p, geomString(h), got.Accesses, want.Accesses)
			}
			gm, wm := float64(got.Misses()), float64(want.Misses())
			// 30% relative + half a percent of the accesses absolute slack:
			// randomized patterns (rr_trav, r_acc) compare an expectation to
			// one realization, and the r_acc cold phase (count below the
			// footprint, so not every line gets touched) is the loosest
			// approximation in the model.
			slack := 0.30*wm + 0.005*float64(want.Accesses) + 2
			if math.Abs(gm-wm) > slack {
				t.Errorf("trial %d %s on %s level %s: analytical misses %.1f, trace %.1f (slack %.1f)",
					i, p, geomString(h), h.Levels[li].Name, gm, wm, slack)
			}
		}
	}
}

// TestPropertyAssociativityBrackets draws set-associative geometries.
// The binomial placement correction assumes uniformly random set
// mapping, while real sweeps map lines to sets regularly — so the model
// is intentionally conservative and exact agreement is not promised.
// What must always hold: the corrected misses stay between a softened
// fully associative floor and the access count (a miss needs an
// access), and the innermost access count is exact. The floor is
// softened because the binomial smooths the FA miss step in both
// directions: at reuse distances just above capacity the FA model
// misses with probability 1 while the binomial assigns ≈½, so near the
// capacity knee the corrected expectation can dip up to ~25% below the
// FA step before conflict misses dominate again.
func TestPropertyAssociativityBrackets(t *testing.T) {
	rng := workload.NewRNG(99)
	const trials = 40
	for i := 0; i < trials; i++ {
		h := randHierarchy(rng, []int{1, 2, 4})
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: invalid hierarchy: %v", i, err)
		}
		faH := &hardware.Hierarchy{Name: h.Name, ClockNS: h.ClockNS,
			Levels: append([]hardware.Level(nil), h.Levels...)}
		for j := range faH.Levels {
			faH.Levels[j].Associativity = 0
		}
		p := randPattern(rng, h)
		res, err := priceOnce(MustNew(h), p)
		if err != nil {
			t.Fatalf("trial %d: Price(%s): %v", i, p, err)
		}
		faRes, err := priceOnce(MustNew(faH), p)
		if err != nil {
			t.Fatal(err)
		}
		traced := replay(t, h, p)
		if got, want := res.Stats(0).Accesses, traced[0].Accesses; got != want {
			t.Errorf("trial %d %s on %s: analytical L1 accesses %d, trace %d",
				i, p, geomString(h), got, want)
		}
		for li := range h.Levels {
			miss := res.Stats(li).Misses()
			faMiss := faRes.Stats(li).Misses()
			if acc := res.Stats(li).Accesses; miss > acc {
				t.Errorf("trial %d %s on %s level %s: misses %d exceed accesses %d",
					i, p, geomString(h), h.Levels[li].Name, miss, acc)
			}
			if float64(miss) < 0.70*float64(faMiss)-2 {
				t.Errorf("trial %d %s on %s level %s: set-associative misses %d below softened FA floor %d",
					i, p, geomString(h), h.Levels[li].Name, miss, faMiss)
			}
		}
	}
}

// TestPropertyFullyAssociativeSTravExact: on a fully associative level a
// single sequential sweep is analytically exact — every line is touched
// once and missed once. Equality must hold for every drawn geometry, not
// just within a band.
func TestPropertyFullyAssociativeSTravExact(t *testing.T) {
	rng := workload.NewRNG(7)
	for i := 0; i < 20; i++ {
		line := []int64{16, 32, 64}[rng.Intn(3)]
		capLines := int64(16) << rng.Intn(5)
		h := fullAssoc(capLines*line, line)
		n := (capLines/2 + rng.Intn(4*capLines)) * (line / 8)
		p := pattern.STrav{R: region.New("U", n, 8)}
		m := MustNew(h)
		res, err := priceOnce(m, p)
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Stats(0), replay(t, h, p)[0]
		if got.Misses() != want.Misses() || got.Accesses != want.Accesses {
			t.Errorf("trial %d (line %d, %d cap lines, n=%d): analytical %d/%d misses/accesses, trace %d/%d",
				i, line, capLines, n, got.Misses(), got.Accesses, want.Misses(), want.Accesses)
		}
	}
}

func geomString(h *hardware.Hierarchy) string {
	s := ""
	for _, l := range h.Levels {
		s += fmt.Sprintf("[%s %dB/%dL/%dw]", l.Name, l.Capacity, l.LineSize, l.Associativity)
	}
	return s
}
