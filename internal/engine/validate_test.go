package engine_test

// Operator-level validation: each engine operator is executed in
// simulated memory with the cache simulator attached, and the measured
// per-level misses are compared against the cost model's prediction for
// the operator's declared access pattern — the paper's Section 6
// experiments in miniature (hardware.SmallTest keeps the runs fast while
// exercising every capacity boundary).

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/vmem"
	"repro/internal/workload"
)

type rig struct {
	mem *vmem.Memory
	sim *cachesim.Simulator
	h   *hardware.Hierarchy
	pad int64
}

func newRig() *rig {
	h := hardware.SmallTest()
	r := &rig{
		mem: vmem.New(1 << 26),
		sim: cachesim.New(h),
		h:   h,
	}
	r.mem.SetObserver(r.sim)
	r.sim.Freeze() // setup is unobserved until measure()
	return r
}

// table allocates a staggered, filled table (setup unobserved).
func (r *rig) table(name string, n, w int64, fill func(*engine.Table)) *engine.Table {
	r.pad++
	r.mem.Alloc((r.pad%7+1)*r.h.Levels[0].LineSize, 1)
	t := engine.NewTable(r.mem, name, n, w, r.h.Levels[0].LineSize)
	if fill != nil {
		fill(t)
	}
	return t
}

// measure runs op with counting enabled and returns per-level stats.
func (r *rig) measure(op func()) []cachesim.Stats {
	r.sim.Reset()
	r.sim.Thaw()
	op()
	r.sim.Freeze()
	return r.sim.AllStats()
}

// compare checks measured misses against the model prediction for p.
func (r *rig) compare(t *testing.T, name string, p pattern.Pattern, measured []cachesim.Stats, tol float64) {
	t.Helper()
	model := cost.MustNew(r.h)
	res, err := model.Evaluate(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, lvl := range r.h.Levels {
		pred := res.PerLevel[i].Misses.Total()
		meas := float64(measured[i].Misses())
		if !within(pred, meas, tol, 16) {
			t.Errorf("%s @%s: predicted %.0f, measured %.0f", name, lvl.Name, pred, meas)
		}
	}
}

func within(a, b, tol, abs float64) bool {
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

func fillUniform(seed uint64) func(*engine.Table) {
	return func(t *engine.Table) { workload.FillUniform(t, workload.NewRNG(seed)) }
}

func fillPerm(seed uint64) func(*engine.Table) {
	return func(t *engine.Table) { workload.FillPermutation(t, workload.NewRNG(seed)) }
}

func TestOperatorScan(t *testing.T) {
	r := newRig()
	for _, n := range []int64{128, 1024, 8192} {
		u := r.table("U", n, 16, fillUniform(1))
		st := r.measure(func() { engine.ScanSum(u, 0) })
		r.compare(t, "scan", engine.ScanPattern(u.Reg, 0), st, 0.10)
	}
}

func TestOperatorSelect(t *testing.T) {
	r := newRig()
	in := r.table("U", 4096, 16, fillUniform(2))
	out := r.table("W", 4096, 16, nil)
	var got int64
	st := r.measure(func() {
		got = engine.Select(in, out, func(k uint64) bool { return k%2 == 0 })
	})
	outReg := *out.Reg
	outReg.N = got // model the actually-written prefix
	r.compare(t, "select", engine.SelectPattern(in.Reg, &outReg), st, 0.20)
}

func TestOperatorProject(t *testing.T) {
	r := newRig()
	in := r.table("U", 4096, 32, fillUniform(3))
	out := r.table("W", 4096, 8, nil)
	st := r.measure(func() { engine.Project(in, out, 8) })
	r.compare(t, "project", engine.ProjectPattern(in.Reg, out.Reg, 8), st, 0.20)
}

func TestOperatorQuickSort(t *testing.T) {
	r := newRig()
	// Sizes spanning: fits L1 (1kB), fits L2 (8kB), exceeds both.
	for _, n := range []int64{64, 512, 4096} {
		u := r.table("U", n, 8, fillUniform(4))
		st := r.measure(func() { engine.QuickSort(u) })
		p := engine.QuickSortPattern(u.Reg, 256) // prune well below L1
		r.compare(t, "quicksort", p, st, 0.45)
		if !u.IsSortedRaw() {
			t.Fatal("not sorted")
		}
	}
}

func TestOperatorMergeJoin(t *testing.T) {
	r := newRig()
	for _, n := range []int64{512, 8192} {
		u := r.table("U", n, 8, func(t *engine.Table) { workload.FillSorted(t) })
		v := r.table("V", n, 8, func(t *engine.Table) { workload.FillSorted(t) })
		w := r.table("W", n, 8, nil)
		st := r.measure(func() { engine.MergeJoin(u, v, w) })
		r.compare(t, "mergejoin", engine.MergeJoinPattern(u.Reg, v.Reg, w.Reg), st, 0.25)
	}
}

func TestOperatorNestedLoopJoin(t *testing.T) {
	r := newRig()
	u := r.table("U", 256, 8, func(t *engine.Table) { workload.FillSorted(t) })
	v := r.table("V", 64, 8, func(t *engine.Table) { workload.FillSorted(t) })
	w := r.table("W", 256, 8, nil)
	st := r.measure(func() { engine.NestedLoopJoin(u, v, w) })
	r.compare(t, "nljoin", engine.NestedLoopJoinPattern(u.Reg, v.Reg, w.Reg), st, 0.30)
}

func TestOperatorHashJoin(t *testing.T) {
	r := newRig()
	for _, n := range []int64{256, 2048} {
		u := r.table("U", n, 8, fillPerm(5))
		v := r.table("V", n, 8, fillPerm(5))
		w := r.table("W", n, 8, nil)
		var matches int64
		st := r.measure(func() { matches = engine.HashJoin(r.mem, u, v, w) })
		if matches != n {
			t.Fatalf("matches = %d, want %d", matches, n)
		}
		hReg := engine.HashRegionFor("H", n)
		p := engine.HashJoinPattern(u.Reg, v.Reg, hReg, w.Reg)
		r.compare(t, "hashjoin", p, st, 0.50)
	}
}

func TestOperatorPartition(t *testing.T) {
	r := newRig()
	in := r.table("U", 8192, 8, fillUniform(6))
	for _, m := range []int64{5, 65, 1025} { // each safely away from the L1/L2/TLB knees, where the model's sharp boundary and the simulator's LRU window differ (paper-acknowledged)
		inCopy := r.table("Uc", 8192, 8, func(t *engine.Table) {
			for i := int64(0); i < 8192; i++ {
				t.SetRawKey(i, in.RawKey(i))
			}
		})
		var parts *engine.Partitions
		st := r.measure(func() { parts = engine.Partition(r.mem, inCopy, "X", m, engine.HashPartition) })
		p := engine.PartitionPattern(inCopy.Reg, parts.Out.Reg, m)
		r.compare(t, "partition", p, st, 0.45)
	}
}

func TestOperatorPartitionedHashJoin(t *testing.T) {
	r := newRig()
	n := int64(4096)
	u := r.table("U", n, 8, fillPerm(7))
	v := r.table("V", n, 8, fillPerm(7))
	w := r.table("W", n, 8, nil)
	var matches int64
	st := r.measure(func() {
		matches = engine.PartitionedHashJoin(r.mem, u, v, w, 17, engine.HashPartition)
	})
	if matches != n {
		t.Fatalf("matches = %d, want %d", matches, n)
	}
	p := engine.PartitionedHashJoinPattern(u.Reg, v.Reg, w.Reg, 17)
	r.compare(t, "part-hashjoin", p, st, 0.50)
}

func TestOperatorMultiPassPartition(t *testing.T) {
	r := newRig()
	n := int64(8192)
	in := r.table("U", n, 8, func(tb *engine.Table) {
		workload.FillUniform(tb, workload.NewRNG(15))
	})
	var parts *engine.Partitions
	st := r.measure(func() {
		parts = engine.MultiPassPartition(r.mem, in, "M", 5, 2, engine.HashPartition)
	})
	if parts.M != 25 {
		t.Fatalf("M = %d", parts.M)
	}
	p := engine.MultiPassPartitionPattern(in.Reg, "M", 5, 2)
	r.compare(t, "multipass-partition", p, st, 0.45)
}

func TestOperatorHashAggregate(t *testing.T) {
	r := newRig()
	in := r.table("U", 8192, 8, fillUniform(8))
	groups := int64(512)
	var agg *engine.AggTable
	st := r.measure(func() { agg = engine.HashAggregate(r.mem, in, groups) })
	p := engine.HashAggregatePattern(in.Reg, agg.Reg)
	r.compare(t, "hashagg", p, st, 0.50)
}

func TestOperatorHashDedup(t *testing.T) {
	r := newRig()
	in := r.table("U", 4096, 8, func(t *engine.Table) { engine.FillMod(t, 1024) })
	out := r.table("W", 4096, 8, nil)
	hReg := engine.HashRegionFor("H", 4096)
	var distinct int64
	st := r.measure(func() { distinct = engine.HashDedup(r.mem, in, out) })
	if distinct != 1024 {
		t.Fatalf("distinct = %d", distinct)
	}
	outReg := *out.Reg
	outReg.N = distinct
	p := engine.HashDedupPattern(in.Reg, hReg, &outReg)
	r.compare(t, "hashdedup", p, st, 0.50)
}

// TestHashJoinCacheStep verifies the paper's Fig. 7c qualitative claim on
// the simulator: misses per probe jump once the hash table exceeds the
// cache.
func TestHashJoinCacheStep(t *testing.T) {
	perProbeMisses := func(n int64) float64 {
		r := newRig()
		u := r.table("U", n, 8, fillPerm(9))
		v := r.table("V", n, 8, fillPerm(9))
		w := r.table("W", n, 8, nil)
		st := r.measure(func() { engine.HashJoin(r.mem, u, v, w) })
		l2, _ := r.sim.StatsByName("L2")
		_ = st
		return float64(l2.Misses()) / float64(n)
	}
	small := perProbeMisses(128)  // H = 256 buckets x 16B = 4kB ≤ 8kB L2
	large := perProbeMisses(4096) // H = 128kB >> L2
	if large < 2*small {
		t.Errorf("no cache step: %.3f misses/tuple small vs %.3f large", small, large)
	}
}
