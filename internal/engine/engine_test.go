package engine

import (
	"sort"
	"testing"

	"repro/internal/vmem"
	"repro/internal/workload"
)

func newMem() *vmem.Memory { return vmem.New(1 << 24) }

func TestTableKeyRoundTrip(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 10, 16, 32)
	tab.Mem.Store64(tab.Addr(3), 12345)
	if got := tab.Key(3); got != 12345 {
		t.Errorf("Key(3) = %d", got)
	}
	if got := tab.RawKey(3); got != 12345 {
		t.Errorf("RawKey(3) = %d", got)
	}
	tab.SetRawKey(4, 999)
	if got := tab.Key(4); got != 999 {
		t.Errorf("Key(4) = %d after SetRawKey", got)
	}
}

func TestTableAddressing(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 10, 24, 32)
	if tab.Addr(0)%32 != 0 {
		t.Error("table base not aligned")
	}
	if tab.Addr(2)-tab.Addr(1) != 24 {
		t.Error("tuple stride != width")
	}
	if tab.N() != 10 || tab.W() != 24 {
		t.Error("dimensions wrong")
	}
}

func TestNarrowTuplePanics(t *testing.T) {
	mem := newMem()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width < key width")
		}
	}()
	NewTable(mem, "U", 1, 4, 1)
}

func TestSwap(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 4, 16, 32)
	tab.SetRawKey(0, 111)
	tab.SetRawKey(1, 222)
	copy(mem.Raw(tab.Addr(0)+8, 8), []byte("payload0"))
	copy(mem.Raw(tab.Addr(1)+8, 8), []byte("payload1"))
	tab.Swap(0, 1)
	if tab.RawKey(0) != 222 || tab.RawKey(1) != 111 {
		t.Error("keys not swapped")
	}
	if string(mem.Raw(tab.Addr(0)+8, 8)) != "payload1" {
		t.Error("payload not swapped")
	}
	tab.Swap(2, 2) // no-op must not panic
}

func TestCopyTuple(t *testing.T) {
	mem := newMem()
	src := NewTable(mem, "S", 2, 16, 32)
	dst := NewTable(mem, "D", 2, 16, 32)
	src.SetRawKey(1, 77)
	copy(mem.Raw(src.Addr(1)+8, 8), []byte("abcdefgh"))
	dst.CopyTuple(0, src, 1)
	if dst.RawKey(0) != 77 {
		t.Error("key not copied")
	}
	if string(mem.Raw(dst.Addr(0)+8, 8)) != "abcdefgh" {
		t.Error("payload not copied")
	}
}

func TestCopyTupleNarrowing(t *testing.T) {
	mem := newMem()
	src := NewTable(mem, "S", 1, 32, 32)
	dst := NewTable(mem, "D", 1, 8, 32)
	src.SetRawKey(0, 5)
	dst.CopyTuple(0, src, 0)
	if dst.RawKey(0) != 5 {
		t.Error("narrowing copy lost key")
	}
}

func TestScanSum(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 100, 16, 32)
	var want uint64
	for i := int64(0); i < 100; i++ {
		tab.SetRawKey(i, uint64(i))
		want += uint64(i)
	}
	if got := ScanSum(tab, 0); got != want {
		t.Errorf("ScanSum = %d, want %d", got, want)
	}
	if got := ScanSum(tab, 8); got != want {
		t.Errorf("ScanSum(u=8) = %d, want %d", got, want)
	}
	if got := ScanSum(tab, 4); got != 0 {
		t.Errorf("ScanSum(u=4) = %d, want 0 (sub-key touch)", got)
	}
}

func TestSelect(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 100, 16, 32)
	out := NewTable(mem, "W", 100, 16, 32)
	for i := int64(0); i < 100; i++ {
		in.SetRawKey(i, uint64(i))
	}
	n := Select(in, out, func(k uint64) bool { return k%2 == 0 })
	if n != 50 {
		t.Fatalf("selected %d, want 50", n)
	}
	for i := int64(0); i < n; i++ {
		if out.RawKey(i)%2 != 0 {
			t.Errorf("odd key %d selected", out.RawKey(i))
		}
	}
}

func TestProject(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 10, 32, 32)
	out := NewTable(mem, "W", 10, 8, 32)
	for i := int64(0); i < 10; i++ {
		in.SetRawKey(i, uint64(i*i))
	}
	Project(in, out, 8)
	for i := int64(0); i < 10; i++ {
		if out.RawKey(i) != uint64(i*i) {
			t.Errorf("projected key %d wrong", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width mismatch")
		}
	}()
	Project(in, out, 16)
}

func TestQuickSortSorts(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 3, 10, 100, 1000, 4096} {
		mem := newMem()
		tab := NewTable(mem, "U", n, 16, 32)
		rng := workload.NewRNG(uint64(n) + 7)
		workload.FillUniform(tab, rng)
		want := tab.Keys()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		QuickSort(tab)
		if !tab.IsSortedRaw() {
			t.Fatalf("n=%d: not sorted", n)
		}
		got := tab.Keys()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d = %d, want %d (multiset broken)", n, i, got[i], want[i])
			}
		}
	}
}

func TestQuickSortDuplicates(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 1000, 8, 32)
	FillMod(tab, 7)
	QuickSort(tab)
	if !tab.IsSortedRaw() {
		t.Fatal("duplicate-heavy table not sorted")
	}
}

func TestQuickSortSortedInput(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 2048, 8, 32)
	workload.FillSorted(tab)
	QuickSort(tab) // median-of-three avoids quadratic blowup; must finish
	if !tab.IsSortedRaw() {
		t.Fatal("sorted input broken")
	}
}

func TestQuickSortMovesPayload(t *testing.T) {
	mem := newMem()
	tab := NewTable(mem, "U", 4, 16, 32)
	keys := []uint64{30, 10, 40, 20}
	for i, k := range keys {
		tab.SetRawKey(int64(i), k)
		// Payload records the original key so we can check it moved along.
		copy(mem.Raw(tab.Addr(int64(i))+8, 8), []byte{byte(k), 0, 0, 0, 0, 0, 0, 0})
	}
	QuickSort(tab)
	for i := int64(0); i < 4; i++ {
		k := tab.RawKey(i)
		if mem.Raw(tab.Addr(i)+8, 1)[0] != byte(k) {
			t.Errorf("payload did not travel with key %d", k)
		}
	}
}

func TestHashTableInsertLookup(t *testing.T) {
	mem := newMem()
	h := NewHashTable(mem, "H", 100)
	if h.Reg.N < 200 {
		t.Errorf("buckets = %d, want ≥ 2n", h.Reg.N)
	}
	for i := int64(0); i < 100; i++ {
		h.Insert(uint64(i*3), i)
	}
	for i := int64(0); i < 100; i++ {
		if got := h.Lookup(uint64(i * 3)); got != i {
			t.Errorf("Lookup(%d) = %d, want %d", i*3, got, i)
		}
	}
	if h.Lookup(1) != -1 {
		t.Error("missing key found")
	}
}

func TestHashBucketsPowerOfTwo(t *testing.T) {
	for _, n := range []int64{1, 3, 100, 1000} {
		b := HashBuckets(n)
		if b < 2*n || b&(b-1) != 0 {
			t.Errorf("HashBuckets(%d) = %d", n, b)
		}
	}
}

func TestMergeJoinOneToOne(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 100, 16, 32)
	v := NewTable(mem, "V", 100, 16, 32)
	w := NewTable(mem, "W", 100, 16, 32)
	workload.FillSorted(u)
	workload.FillSorted(v)
	n := MergeJoin(u, v, w)
	if n != 100 {
		t.Fatalf("matches = %d, want 100", n)
	}
	for i := int64(0); i < n; i++ {
		if w.RawKey(i) != uint64(i) {
			t.Errorf("output key %d = %d", i, w.RawKey(i))
		}
	}
}

func TestMergeJoinPartialOverlap(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 50, 8, 32)
	v := NewTable(mem, "V", 50, 8, 32)
	w := NewTable(mem, "W", 50, 8, 32)
	FillSortedStep(u, 2) // 0,2,4,...,98
	FillSortedStep(v, 3) // 0,3,6,...,147
	// Common keys ≤ min(98,147) divisible by 6: 0,6,...,96 → 17 keys.
	if n := MergeJoin(u, v, w); n != 17 {
		t.Errorf("matches = %d, want 17", n)
	}
}

func TestMergeJoinDuplicates(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 4, 8, 32)
	v := NewTable(mem, "V", 3, 8, 32)
	w := NewTable(mem, "W", 12, 8, 32)
	for i, k := range []uint64{1, 1, 2, 3} {
		u.SetRawKey(int64(i), k)
	}
	for i, k := range []uint64{1, 1, 3} {
		v.SetRawKey(int64(i), k)
	}
	// key 1: 2x2=4 pairs; key 3: 1 pair.
	if n := MergeJoin(u, v, w); n != 5 {
		t.Errorf("matches = %d, want 5", n)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 20, 8, 32)
	v := NewTable(mem, "V", 10, 8, 32)
	w := NewTable(mem, "W", 20, 8, 32)
	workload.FillSorted(u) // 0..19
	workload.FillSorted(v) // 0..9
	if n := NestedLoopJoin(u, v, w); n != 10 {
		t.Errorf("matches = %d, want 10", n)
	}
}

func TestHashJoinMatchesMergeJoin(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 500, 16, 32)
	v := NewTable(mem, "V", 500, 16, 32)
	w1 := NewTable(mem, "W1", 500, 16, 32)
	w2 := NewTable(mem, "W2", 500, 16, 32)
	rng := workload.NewRNG(5)
	workload.FillPermutation(u, rng)
	workload.FillPermutation(v, rng)

	nh := HashJoin(mem, u, v, w1)
	if nh != 500 {
		t.Fatalf("hash join matches = %d, want 500 (1:1 permutations)", nh)
	}
	// Cross-check result keys as a set.
	us := NewTable(mem, "Us", 500, 16, 32)
	vs := NewTable(mem, "Vs", 500, 16, 32)
	for i := int64(0); i < 500; i++ {
		us.SetRawKey(i, u.RawKey(i))
		vs.SetRawKey(i, v.RawKey(i))
	}
	QuickSort(us)
	QuickSort(vs)
	nm := MergeJoin(us, vs, w2)
	if nm != nh {
		t.Errorf("merge join found %d, hash join %d", nm, nh)
	}
}

func TestHashJoinSelective(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 100, 8, 32)
	v := NewTable(mem, "V", 50, 8, 32)
	w := NewTable(mem, "W", 100, 8, 32)
	workload.FillSorted(u) // 0..99
	FillSortedStep(v, 4)   // 0,4,...,196
	if n := HashJoin(mem, u, v, w); n != 25 {
		t.Errorf("matches = %d, want 25", n)
	}
}

func TestPartitionPreservesTuplesAndClusters(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 1000, 16, 32)
	rng := workload.NewRNG(11)
	workload.FillUniform(in, rng)
	parts := Partition(mem, in, "X", 8, HashPartition)
	var total int64
	for j, pt := range parts.Tables {
		total += pt.N()
		for i := int64(0); i < pt.N(); i++ {
			if HashPartition(pt.RawKey(i), 8) != int64(j) {
				t.Fatalf("tuple in wrong cluster %d", j)
			}
		}
	}
	if total != 1000 {
		t.Errorf("clusters hold %d tuples, want 1000", total)
	}
}

func TestRadixPartition(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 64, 8, 32)
	workload.FillSorted(in)
	parts := Partition(mem, in, "X", 4, RadixPartition)
	for j, pt := range parts.Tables {
		if pt.N() != 16 {
			t.Errorf("cluster %d has %d tuples, want 16", j, pt.N())
		}
	}
}

func TestPartitionedHashJoin(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 600, 16, 32)
	v := NewTable(mem, "V", 600, 16, 32)
	w := NewTable(mem, "W", 600, 16, 32)
	rng := workload.NewRNG(21)
	workload.FillPermutation(u, rng)
	workload.FillPermutation(v, rng)
	if n := PartitionedHashJoin(mem, u, v, w, 8, HashPartition); n != 600 {
		t.Errorf("matches = %d, want 600", n)
	}
}

func TestPartitionedHashJoinMatchesPlain(t *testing.T) {
	mem := newMem()
	u := NewTable(mem, "U", 300, 8, 32)
	v := NewTable(mem, "V", 200, 8, 32)
	w1 := NewTable(mem, "W1", 300, 8, 32)
	w2 := NewTable(mem, "W2", 300, 8, 32)
	rng := workload.NewRNG(31)
	workload.FillUniform(u, rng)
	// Copy half of U's keys into V so there are guaranteed matches.
	for i := int64(0); i < 200; i++ {
		if i < 150 {
			v.SetRawKey(i, u.RawKey(i))
		} else {
			v.SetRawKey(i, rng.Uint64())
		}
	}
	plain := HashJoin(mem, u, v, w1)
	part := PartitionedHashJoin(mem, u, v, w2, 4, HashPartition)
	if plain != part {
		t.Errorf("plain %d vs partitioned %d matches", plain, part)
	}
}

func TestHashAggregate(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 1000, 8, 32)
	FillMod(in, 10) // keys 0..9 round robin
	agg := HashAggregate(mem, in, 10)
	if g := agg.Groups(); g != 10 {
		t.Errorf("groups = %d, want 10", g)
	}
}

func TestHashDedup(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 1000, 8, 32)
	out := NewTable(mem, "W", 1000, 8, 32)
	FillMod(in, 37)
	if n := HashDedup(mem, in, out); n != 37 {
		t.Errorf("distinct = %d, want 37", n)
	}
}
