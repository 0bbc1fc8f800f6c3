package costir_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// TestQuickSortSiblingCarry characterizes the state one quick-sort
// recursion leaves for its sibling. For a region R with halves a and
// b, the partition step is s_trav(a) ⊙ s_trav(b), and the two
// recursions follow it under ⊕. If no cache state carried from QS(a)
// into QS(b), both would add the same misses and a level of the
// recursion could be priced as one representative times two (ROADMAP
// item 6, "collapse the quicksort recursion"). They do not: QS(b)
// inherits what QS(a) left resident, and at the two points below the
// difference is large. The IR and the tree walker agree exactly, so
// this is the model's behaviour, not an evaluator's. A change that
// collapses sibling recursions changes these numbers and must update
// this test on purpose, with the accuracy evidence item 6 asks for.
func TestQuickSortSiblingCarry(t *testing.T) {
	for _, tc := range []struct {
		h        *hardware.Hierarchy
		items    int64 // of 16 bytes
		level    string
		qsA, qsB float64 // misses QS(a), then QS(b), add at level
		what     string
	}{
		{hardware.Origin2000(), 150_000, "L2", 23_488, 9_376, "2.4 MB over a 4 MB L2"},
		{hardware.ModernX86(), 400_000, "L3", 110_208, 99_614, "6.4 MB over an 8 MB L3"},
	} {
		r := region.New("R", tc.items, 16)
		a, b := r.Halves()
		prune := tc.h.MinCapacity()
		part := pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}}
		steps := []pattern.Pattern{
			part,
			pattern.Seq{part, engine.QuickSortPattern(a, prune)},
			pattern.Seq{part, engine.QuickSortPattern(a, prune), engine.QuickSortPattern(b, prune)},
		}
		li := -1
		for i, l := range tc.h.Levels {
			if l.Name == tc.level {
				li = i
			}
		}
		if li < 0 {
			t.Fatalf("%s has no level %s", tc.h.Name, tc.level)
		}
		m := cost.MustNew(tc.h)
		var total [3]float64
		for i, p := range steps {
			prog, err := costir.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			ir := m.EvaluateCompiled(prog).PerLevel[li].Misses
			ref, err := m.EvaluateTree(p)
			if err != nil {
				t.Fatal(err)
			}
			if tree := ref.PerLevel[li].Misses; ir != tree {
				t.Fatalf("%s %s step %d: IR %+v, tree walker %+v", tc.h.Name, tc.level, i, ir, tree)
			}
			total[i] = ir.Seq + ir.Rnd
		}
		qsA, qsB := total[1]-total[0], total[2]-total[1]
		if qsA != tc.qsA || qsB != tc.qsB {
			t.Errorf("%s, %d × 16 B (%s): %s misses QS(a) %.0f, QS(b) %.0f; want %.0f, %.0f",
				tc.h.Name, tc.items, tc.what, tc.level, qsA, qsB, tc.qsA, tc.qsB)
		}
		if qsA == qsB {
			t.Errorf("%s: QS(a) and QS(b) add the same misses; the sibling carry vanished", tc.h.Name)
		}
	}
}
