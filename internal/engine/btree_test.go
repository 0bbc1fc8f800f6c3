package engine

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/internal/vmem"
	"repro/internal/workload"
)

func buildTree(t *testing.T, n, fanout int64) (*vmem.Memory, *Table, *BTree) {
	t.Helper()
	mem := newMem()
	tab := NewTable(mem, "V", n, 8, 32)
	FillSortedStep(tab, 3) // keys 0,3,6,...
	tree := BulkLoadBTree(mem, "I", tab, fanout)
	return mem, tab, tree
}

func TestBTreeLookupFindsEveryKey(t *testing.T) {
	for _, tc := range []struct{ n, fanout int64 }{
		{1, 4}, {4, 4}, {5, 4}, {100, 4}, {1000, 8}, {4096, 16},
	} {
		_, tab, tree := buildTree(t, tc.n, tc.fanout)
		for i := int64(0); i < tc.n; i += 7 {
			key := tab.RawKey(i)
			if got := tree.Lookup(key); got != i {
				t.Fatalf("n=%d f=%d: Lookup(%d) = %d, want %d", tc.n, tc.fanout, key, got, i)
			}
		}
	}
}

func TestBTreeLookupMisses(t *testing.T) {
	_, _, tree := buildTree(t, 1000, 8)
	// Keys are multiples of 3: 1 and 2 mod 3 are absent; also beyond max.
	for _, key := range []uint64{1, 2, 4, 2999, 3001, 1 << 40} {
		if got := tree.Lookup(key); got != -1 {
			t.Errorf("Lookup(%d) = %d, want -1", key, got)
		}
	}
}

func TestBTreeHeightAndLevelGeometry(t *testing.T) {
	_, _, tree := buildTree(t, 4096, 16)
	// 4096 leaves entries /16 = 256 leaf nodes, /16 = 16, /16 = 1: 3 levels.
	if len(tree.Levels) != 3 {
		t.Fatalf("height = %d, want 3", len(tree.Levels))
	}
	if tree.Levels[0].N != 1 {
		t.Errorf("root level has %d nodes", tree.Levels[0].N)
	}
	if tree.Levels[2].N != 256 {
		t.Errorf("leaf level has %d nodes, want 256", tree.Levels[2].N)
	}
	if w := tree.NodeWidth(); w != 256 {
		t.Errorf("node width = %d, want 256", w)
	}
}

func TestBTreeSingleNode(t *testing.T) {
	_, tab, tree := buildTree(t, 3, 8)
	if len(tree.Levels) != 1 {
		t.Fatalf("height = %d, want 1", len(tree.Levels))
	}
	if got := tree.Lookup(tab.RawKey(2)); got != 2 {
		t.Errorf("Lookup = %d", got)
	}
}

func TestBTreePanics(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "V", 4, 8, 32)
	assertPanic(t, "fanout 1", func() { BulkLoadBTree(mem, "I", tab, 1) })
	empty := NewTable(mem, "E", 0, 8, 32)
	assertPanic(t, "empty", func() { BulkLoadBTree(mem, "I", empty, 4) })
}

// TestBTreeLookupModelAgreement runs a batch of random lookups under the
// simulator and compares the per-level misses with the model's
// prediction for the tree's declared pattern — the "trees are regions"
// claim of the paper's Section 3.1.
func TestBTreeLookupModelAgreement(t *testing.T) {
	h := hardware.SmallTest()
	mem := vmem.New(1 << 24)
	sim := cachesim.New(h)
	mem.SetObserver(sim)
	sim.Freeze()

	v := NewTable(mem, "V", 8192, 8, 32) // 64 kB sorted base table
	workload.FillSorted(v)
	tree := BulkLoadBTree(mem, "I", v, 16)

	const k = 4096
	rng := workload.NewRNG(13)
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = uint64(rng.Intn(8192))
	}
	sim.Thaw()
	for _, key := range keys {
		if tree.Lookup(key) < 0 {
			t.Fatal("existing key not found")
		}
	}
	sim.Freeze()

	model := cost.MustNew(h)
	res, err := model.Evaluate(tree.LookupBatchPattern(k))
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range h.Levels {
		pred := res.PerLevel[i].Misses.Total()
		meas := float64(sim.Stats(i).Misses())
		// Eq. 5.3 divides the cache among concurrent patterns by
		// footprint, which short-changes the small-but-frequently-hit
		// middle tree level and overpredicts its misses (conservative —
		// safe for an optimizer). Allow a wider band than for flat
		// operators, but insist the prediction stays within ~2.5x.
		if !withinTol(pred, meas, 0.65, 32) {
			t.Errorf("@%s: predicted %.0f, measured %.0f", lvl.Name, pred, meas)
		}
	}
	// Qualitative: the leaf level dominates; upper levels are cached.
	leaf := tree.Levels[len(tree.Levels)-1]
	if leaf.Size() <= h.Levels[1].Capacity {
		t.Fatalf("test setup: leaf level should exceed L2 (%d bytes)", leaf.Size())
	}
}

func withinTol(a, b, tol, abs float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= tol*m+abs
}
