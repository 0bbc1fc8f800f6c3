package engine

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/internal/workload"
)

func newOriginModel(t *testing.T) *cost.Model {
	t.Helper()
	m, err := cost.New(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiPassPartitionEquivalentToSinglePass(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 4096, 8, 32)
	workload.FillUniform(in, workload.NewRNG(3))

	single := Partition(mem, in, "S", 16, RadixPartition)
	multi := MultiPassPartition(mem, in, "M", 4, 2, RadixPartition)

	if multi.M != 16 || int64(len(multi.Tables)) != 16 {
		t.Fatalf("multi-pass produced %d clusters, want 16", multi.M)
	}
	for j := int64(0); j < 16; j++ {
		s, m := single.Tables[j], multi.Tables[j]
		if s.N() != m.N() {
			t.Fatalf("cluster %d: single %d tuples, multi %d", j, s.N(), m.N())
		}
		// Same multiset of keys per cluster.
		ks, km := s.Keys(), m.Keys()
		sortU64(ks)
		sortU64(km)
		for i := range ks {
			if ks[i] != km[i] {
				t.Fatalf("cluster %d: key sets differ", j)
			}
		}
	}
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func TestMultiPassPartitionThreePasses(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 2048, 8, 32)
	workload.FillUniform(in, workload.NewRNG(5))
	p := MultiPassPartition(mem, in, "M", 2, 3, RadixPartition)
	if p.M != 8 {
		t.Fatalf("M = %d, want 8", p.M)
	}
	var total int64
	for j, pt := range p.Tables {
		total += pt.N()
		for i := int64(0); i < pt.N(); i++ {
			if RadixPartition(pt.RawKey(i), 8) != int64(j) {
				t.Fatalf("tuple in wrong cluster %d", j)
			}
		}
	}
	if total != 2048 {
		t.Errorf("clusters hold %d tuples", total)
	}
}

func TestMultiPassPartitionValidation(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 16, 8, 32)
	assertPanic(t, "zero passes", func() { MultiPassPartition(mem, in, "M", 4, 0, RadixPartition) })
	assertPanic(t, "fanout 1", func() { MultiPassPartition(mem, in, "M", 1, 2, RadixPartition) })
}

func assertPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestMultiPassPatternGeometry checks that the declared pattern has one
// pass per Seq element, each a scan concurrent with a nest.
func TestMultiPassPatternGeometry(t *testing.T) {
	mem := newMem()
	in := NewTable(mem, "U", 1024, 8, 32)
	p := MultiPassPartitionPattern(in.Reg, "M", 8, 2)
	s := p.String()
	if countOccurrences(s, "nest(") != 2 {
		t.Errorf("pattern should have 2 nests: %s", s)
	}
	if countOccurrences(s, "s_trav(") != 4 { // 2 scans + 2 inner s_travs
		t.Errorf("pattern should have 4 s_trav occurrences: %s", s)
	}
}

func countOccurrences(s, sub string) int {
	n := 0
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			n++
		}
	}
	return n
}

// TestMultiPassCheaperBeyondKnee is the radix-cluster headline claim on
// the model: for a fan-out beyond the single-pass knees, two passes cost
// less memory time than one.
func TestMultiPassCheaperBeyondKnee(t *testing.T) {
	// Use the model only (no simulation): 8 MB input, m = 4096 clusters
	// on the Origin2000 (TLB 64 entries, L1 1024 lines).
	in := NewTable(newMem(), "U", 1<<20, 8, 32)
	onePass := MultiPassPartitionPattern(in.Reg, "A", 4096, 1)
	twoPass := MultiPassPartitionPattern(in.Reg, "B", 64, 2)
	model := newOriginModel(t)
	r1, err := model.Evaluate(onePass)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := model.Evaluate(twoPass)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MemoryTimeNS() >= r1.MemoryTimeNS() {
		t.Errorf("two-pass %.1fms not cheaper than one-pass %.1fms",
			r2.MemoryTimeNS()/1e6, r1.MemoryTimeNS()/1e6)
	}
}
