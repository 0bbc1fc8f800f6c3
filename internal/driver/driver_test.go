package driver

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/vmem"
	"repro/internal/workload"
)

// observerFunc adapts a function to the vmem.Observer interface.
type observerFunc func(vmem.Access)

func (f observerFunc) OnAccess(a vmem.Access) { f(a) }

// recorded runs p and returns the raw access trace.
func recorded(t *testing.T, p pattern.Pattern, mats ...*region.Region) []vmem.Access {
	t.Helper()
	mem := vmem.New(1 << 22)
	for _, r := range mats {
		Materialize(mem, r, 64)
	}
	var log []vmem.Access
	mem.SetObserver(observerFunc(func(a vmem.Access) { log = append(log, a) }))
	Run(mem, workload.NewRNG(1), p)
	return log
}

func TestSTravTrace(t *testing.T) {
	r := region.New("U", 4, 16)
	log := recorded(t, pattern.STrav{R: r, U: 8}, r)
	if len(log) != 4 {
		t.Fatalf("trace length %d, want 4", len(log))
	}
	for i, a := range log {
		want := vmem.Addr(r.Base + int64(i)*16)
		if a.Addr != want || a.Size != 8 {
			t.Errorf("access %d = %+v, want addr %d size 8", i, a, want)
		}
	}
}

func TestSTravDefaultsToFullWidth(t *testing.T) {
	r := region.New("U", 2, 16)
	log := recorded(t, pattern.STrav{R: r}, r)
	if log[0].Size != 16 {
		t.Errorf("default access size %d, want full width 16", log[0].Size)
	}
}

func TestRSTravBiDirection(t *testing.T) {
	r := region.New("U", 3, 8)
	log := recorded(t, pattern.RSTrav{R: r, Repeats: 2, Dir: pattern.Bi}, r)
	if len(log) != 6 {
		t.Fatalf("trace length %d, want 6", len(log))
	}
	// First sweep forward: 0,1,2. Second sweep backward: 2,1,0.
	wantIdx := []int64{0, 1, 2, 2, 1, 0}
	for i, a := range log {
		want := vmem.Addr(r.Base + wantIdx[i]*8)
		if a.Addr != want {
			t.Errorf("access %d at %d, want %d", i, a.Addr, want)
		}
	}
}

func TestRSTravUniDirection(t *testing.T) {
	r := region.New("U", 3, 8)
	log := recorded(t, pattern.RSTrav{R: r, Repeats: 2, Dir: pattern.Uni}, r)
	wantIdx := []int64{0, 1, 2, 0, 1, 2}
	for i, a := range log {
		want := vmem.Addr(r.Base + wantIdx[i]*8)
		if a.Addr != want {
			t.Errorf("access %d at %d, want %d", i, a.Addr, want)
		}
	}
}

func TestRTravVisitsEachItemOnce(t *testing.T) {
	r := region.New("U", 100, 8)
	log := recorded(t, pattern.RTrav{R: r}, r)
	if len(log) != 100 {
		t.Fatalf("trace length %d, want 100", len(log))
	}
	seen := map[vmem.Addr]int{}
	sequential := true
	var prev vmem.Addr
	for i, a := range log {
		seen[a.Addr]++
		if i > 0 && a.Addr != prev+8 {
			sequential = false
		}
		prev = a.Addr
	}
	if len(seen) != 100 {
		t.Errorf("visited %d distinct items, want 100", len(seen))
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("item at %d visited %d times", addr, n)
		}
	}
	if sequential {
		t.Error("random traversal produced the identity permutation")
	}
}

func TestRAccCountAndRange(t *testing.T) {
	r := region.New("U", 10, 8)
	log := recorded(t, pattern.RAcc{R: r, Count: 500}, r)
	if len(log) != 500 {
		t.Fatalf("trace length %d, want 500", len(log))
	}
	hits := map[vmem.Addr]bool{}
	for _, a := range log {
		if a.Addr < vmem.Addr(r.Base) || a.Addr >= vmem.Addr(r.Base+80) {
			t.Fatalf("access outside region: %d", a.Addr)
		}
		if (int64(a.Addr)-r.Base)%8 != 0 {
			t.Fatalf("access not item-aligned: %d", a.Addr)
		}
		hits[a.Addr] = true
	}
	// With 500 draws over 10 items every item is hit almost surely.
	if len(hits) != 10 {
		t.Errorf("hit %d distinct items, want 10", len(hits))
	}
}

func TestSeqOrdering(t *testing.T) {
	a := region.New("A", 3, 8)
	b := region.New("B", 3, 8)
	log := recorded(t, pattern.Seq{pattern.STrav{R: a}, pattern.STrav{R: b}}, a, b)
	if len(log) != 6 {
		t.Fatalf("trace length %d", len(log))
	}
	for i := 0; i < 3; i++ {
		if log[i].Addr >= vmem.Addr(b.Base) {
			t.Error("Seq ran second pattern before first finished")
		}
	}
	for i := 3; i < 6; i++ {
		if log[i].Addr < vmem.Addr(b.Base) {
			t.Error("Seq revisited first pattern after second started")
		}
	}
}

func TestConcInterleaves(t *testing.T) {
	a := region.New("A", 4, 8)
	b := region.New("B", 4, 8)
	log := recorded(t, pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}}, a, b)
	if len(log) != 8 {
		t.Fatalf("trace length %d", len(log))
	}
	// Round-robin: A0 B0 A1 B1 ...
	for i, acc := range log {
		inA := acc.Addr < vmem.Addr(b.Base)
		if (i%2 == 0) != inA {
			t.Fatalf("access %d not round-robin interleaved", i)
		}
	}
}

func TestConcUnevenLengths(t *testing.T) {
	a := region.New("A", 2, 8)
	b := region.New("B", 5, 8)
	log := recorded(t, pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}}, a, b)
	if len(log) != 7 {
		t.Fatalf("trace length %d, want 7", len(log))
	}
	// The longer child finishes alone.
	last := log[len(log)-1]
	if last.Addr < vmem.Addr(b.Base) {
		t.Error("final access should belong to the longer pattern")
	}
}

func TestNestSequentialUniOrder(t *testing.T) {
	r := region.New("X", 6, 8)
	log := recorded(t, pattern.Nest{R: r, M: 3, Inner: pattern.InnerSTrav, Order: pattern.OrderUni}, r)
	if len(log) != 6 {
		t.Fatalf("trace length %d", len(log))
	}
	// Sub-regions of 2 items each at offsets 0, 16, 32. Uni order visits
	// cursor 0,1,2,0,1,2; each advances one item per visit.
	want := []int64{0, 16, 32, 8, 24, 40}
	for i, a := range log {
		if a.Addr != vmem.Addr(r.Base+want[i]) {
			t.Errorf("access %d at %d, want %d", i, int64(a.Addr)-r.Base, want[i])
		}
	}
}

func TestNestRandomOrderCoversRegion(t *testing.T) {
	r := region.New("X", 64, 8)
	log := recorded(t, pattern.Nest{R: r, M: 8, Inner: pattern.InnerSTrav, Order: pattern.OrderRandom}, r)
	if len(log) != 64 {
		t.Fatalf("trace length %d, want 64", len(log))
	}
	seen := map[vmem.Addr]bool{}
	for _, a := range log {
		seen[a.Addr] = true
	}
	if len(seen) != 64 {
		t.Errorf("covered %d distinct items, want 64", len(seen))
	}
}

func TestNestRAccInner(t *testing.T) {
	r := region.New("X", 40, 8)
	log := recorded(t, pattern.Nest{R: r, M: 4, Inner: pattern.InnerRAcc, Count: 25, Order: pattern.OrderRandom}, r)
	if len(log) != 100 {
		t.Fatalf("trace length %d, want 4 cursors x 25 accesses", len(log))
	}
}

func TestNestUnevenSplitLayout(t *testing.T) {
	// 7 items into 3 sub-regions: 3+2+2; offsets 0, 3w, 5w.
	r := region.New("X", 7, 8)
	if got := subOffset(r, 0, 3); got != 0 {
		t.Errorf("subOffset(0) = %d", got)
	}
	if got := subOffset(r, 1, 3); got != 24 {
		t.Errorf("subOffset(1) = %d, want 24", got)
	}
	if got := subOffset(r, 2, 3); got != 40 {
		t.Errorf("subOffset(2) = %d, want 40", got)
	}
}

func TestRRTravIndependentPermutations(t *testing.T) {
	r := region.New("U", 50, 8)
	log := recorded(t, pattern.RRTrav{R: r, Repeats: 2}, r)
	if len(log) != 100 {
		t.Fatalf("trace length %d", len(log))
	}
	same := true
	for i := 0; i < 50; i++ {
		if log[i].Addr != log[50+i].Addr {
			same = false
			break
		}
	}
	if same {
		t.Error("both traversals used the same permutation")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []vmem.Access {
		r := region.New("U", 64, 8)
		mem := vmem.New(1 << 20)
		Materialize(mem, r, 64)
		var log []vmem.Access
		mem.SetObserver(observerFunc(func(a vmem.Access) { log = append(log, a) }))
		Run(mem, workload.NewRNG(99), pattern.RTrav{R: r})
		return log
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestRunValidates(t *testing.T) {
	mem := vmem.New(1 << 12)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid pattern")
		}
	}()
	Run(mem, workload.NewRNG(1), pattern.Seq{})
}

func TestMaterializeAt(t *testing.T) {
	mem := vmem.New(1 << 16)
	r := region.New("U", 4, 8)
	MaterializeAt(mem, r, 64, 13)
	if r.Base%64 != 13 {
		t.Errorf("base %d not at offset 13 mod 64", r.Base)
	}
}
