package costir

import (
	"math"
	"testing"

	"repro/internal/costmath"
)

// TestConcMergeSumsMergedBytesInIndexOrder pins the order of
// concMerge's merged-byte sum: ascending region index, like every other
// float sum of the evaluator and the tree walker's dense scans. The
// merged row holds 0.1, 0.2 and 0.3 resident bytes, which sum to
// 0.6000000000000001 in index order and to 0.6 in reverse; the room
// left in a 1-byte cache rescales the one surviving entry of the entry
// state, so its rho and key carry that last bit.
func TestConcMergeSumsMergedBytesInIndexOrder(t *testing.T) {
	ent := func(reg int32, size, key float64) entry {
		return entry{span: span{reg: reg, pre: reg, end: reg + 1, rank: reg, size: size}, rho: key / size, key: key}
	}
	merged := []entry{ent(1, 1, 0.1), ent(2, 1, 0.2), ent(3, 1, 0.3)}
	old := ent(0, 4, 1) // unrelated to every merged region: it survives
	const capacity = 1.0

	var inOrder, reversed float64
	for i := range merged {
		inOrder += merged[i].key
		reversed += merged[len(merged)-1-i].key
	}
	if inOrder == reversed {
		t.Fatal("the merged keys sum alike in both orders; the case pins nothing")
	}
	rescaled := func(newBytes float64) (rho, key float64) {
		rho = old.rho * ((capacity - newBytes) / old.key)
		return rho, rho * old.size
	}
	wantRho, wantKey := rescaled(inOrder)
	if badRho, _ := rescaled(reversed); badRho == wantRho {
		t.Fatal("the two sums rescale the survivor alike; the case pins nothing")
	}

	ev := &evaluator{state: [][]entry{nil}}
	f := &frame{
		snap:   [][]entry{{old}},
		merged: [][]entry{merged},
		saved:  []costmath.Level{{C: capacity, B: 1, L: capacity}},
	}
	ev.concMerge(f, 0)

	row := ev.state[0]
	if len(row) != 4 {
		t.Fatalf("merged row has %d entries, want the survivor and 3 merged", len(row))
	}
	got := row[0]
	if got.reg != 0 || math.Float64bits(got.rho) != math.Float64bits(wantRho) ||
		math.Float64bits(got.key) != math.Float64bits(wantKey) {
		t.Errorf("survivor = reg %d rho %v key %v, want reg 0 rho %v key %v (merged bytes summed in index order)",
			got.reg, got.rho, got.key, wantRho, wantKey)
	}
	for i, e := range row[1:] {
		if want := merged[i]; e.reg != want.reg || e.rho != want.rho || e.key != want.key {
			t.Errorf("merged entry %d = %+v, want %+v unchanged", i, e, want)
		}
	}
}
