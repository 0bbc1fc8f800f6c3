package cachemodel

import (
	"math"
	"testing"

	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/workload"
)

// randComposite draws a pattern tree mixing ⊕ and ⊙ over randomized
// basic patterns, including the recursive halves shape the quick-sort
// pattern generates (the memo's main beneficiary).
func randComposite(rng *workload.RNG, h *hardware.Hierarchy, depth int) pattern.Pattern {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randPattern(rng, h)
	}
	switch rng.Intn(3) {
	case 0:
		n := 2 + rng.Intn(3)
		var seq pattern.Seq
		for i := int64(0); i < n; i++ {
			seq = append(seq, randComposite(rng, h, depth-1))
		}
		return seq
	case 1:
		n := 2 + rng.Intn(2)
		var conc pattern.Conc
		for i := int64(0); i < n; i++ {
			conc = append(conc, randComposite(rng, h, depth-1))
		}
		return conc
	default:
		// Quick-sort shape: conc over the two halves, then recurse.
		b := h.Levels[0].LineSize
		n := (h.Levels[0].Lines() * 2) * (b / 8)
		r := region.New("Q", n, 8)
		var rec func(r *region.Region, d int) pattern.Pattern
		rec = func(r *region.Region, d int) pattern.Pattern {
			a, bb := r.Halves()
			p := pattern.Seq{pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: bb}}}
			if d > 0 && a.Size() > 64 {
				p = append(p, rec(a, d-1), rec(bb, d-1))
			}
			return p
		}
		return rec(r, 2+int(rng.Intn(3)))
	}
}

// priceOnce prices p through a fresh Prepare and a zero-value analyzer,
// whose memos hold nothing, so every profile and integral is computed
// afresh: the one-shot reference the memoizing Pricer is checked
// against.
func priceOnce(m *Model, p pattern.Pattern) (*Result, error) {
	prep, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	var az analyzer
	res := &Result{}
	m.priceInto(&az, prep, res)
	return res, nil
}

// TestPricerMatchesPrice pins the batch path to the one-shot path:
// pricing through a persistent (warm, memoized) Pricer must reproduce
// priceOnce bit-for-bit on every level, across many patterns sharing
// one pricer.
func TestPricerMatchesPrice(t *testing.T) {
	rng := workload.NewRNG(20260809)
	const hierarchies = 6
	const patternsPer = 25
	for hi := 0; hi < hierarchies; hi++ {
		assocs := []int{0, 1, 2, 4}
		h := randHierarchy(rng, assocs)
		m := MustNew(h)
		pr := m.NewPricer()
		res := &Result{}
		for pi := 0; pi < patternsPer; pi++ {
			p := randComposite(rng, h, 3)
			want, err := priceOnce(m, p)
			if err != nil {
				t.Fatalf("priceOnce: %v", err)
			}
			prep, err := Prepare(p)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			pr.PriceInto(prep, res)
			for li := range h.Levels {
				ws, wr := want.MissesNS(li)
				gs, gr := res.MissesNS(li)
				if math.Float64bits(ws) != math.Float64bits(gs) || math.Float64bits(wr) != math.Float64bits(gr) {
					t.Fatalf("h%d p%d level %d: pricer (%v, %v) != price (%v, %v)", hi, pi, li, gs, gr, ws, wr)
				}
				if want.Stats(li) != res.Stats(li) {
					t.Fatalf("h%d p%d level %d: stats %+v != %+v", hi, pi, li, res.Stats(li), want.Stats(li))
				}
			}
			if math.Float64bits(want.MemoryTimeNS()) != math.Float64bits(res.MemoryTimeNS()) {
				t.Fatalf("h%d p%d: T_mem %v != %v", hi, pi, res.MemoryTimeNS(), want.MemoryTimeNS())
			}
		}
		if pr.MemoLen() == 0 {
			t.Fatalf("h%d: memo never populated", hi)
		}
	}
}

// TestPricerZeroAllocSteadyState pins the batch path's allocation
// contract: once buffers and memo are warm, PriceInto allocates
// nothing.
func TestPricerZeroAllocSteadyState(t *testing.T) {
	h := hardware.Origin2000()
	m := MustNew(h)
	r := region.New("U", 1<<15, 8)
	var rec func(r *region.Region, pruneBytes int64) pattern.Pattern
	rec = func(r *region.Region, pruneBytes int64) pattern.Pattern {
		a, b := r.Halves()
		p := pattern.Seq{pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}}}
		if a.Size() > pruneBytes {
			p = append(p, rec(a, pruneBytes), rec(b, pruneBytes))
		}
		return p
	}
	prep, err := Prepare(rec(r, 4<<10))
	if err != nil {
		t.Fatal(err)
	}
	pr := m.NewPricer()
	res := &Result{}
	pr.PriceInto(prep, res) // warm buffers and memo
	if allocs := testing.AllocsPerRun(50, func() { pr.PriceInto(prep, res) }); allocs != 0 {
		t.Fatalf("warm PriceInto allocates %.1f times per run, want 0", allocs)
	}
}
