package experiments

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/pattern"
	"repro/internal/workload"
)

// The five operator experiments of Figure 7. Each sweeps a size (or
// partitioning) parameter, runs the engine operator in simulated memory,
// and pairs the simulator's per-level miss counts and latency-scored
// memory time with the cost model's prediction for the operator's
// declared pattern (plus the shared T_cpu constant of Eq. 6.1).

// fig7Sizes returns the relation-size sweep: 128 kB to MaxSize in x4
// steps (the paper sweeps 128 kB to 128 MB).
func fig7Sizes(cfg Config) []int64 {
	if cfg.Quick {
		return []int64{128 << 10, 512 << 10}
	}
	var out []int64
	for s := int64(128 << 10); s <= cfg.MaxSize; s *= 4 {
		out = append(out, s)
	}
	return out
}

// fig7Header builds the report header for a size-sweep experiment.
func fig7Header(cfg Config, xlabel string) []string {
	h := []string{xlabel}
	for _, l := range cfg.Hier.Levels {
		h = append(h, l.Name+".meas", l.Name+".pred")
	}
	return append(h, "t.meas[ms]", "t.pred[ms]")
}

// fig7Row renders one sweep point.
func fig7Row(cfg Config, x string, stats []cachesim.Stats, memNS float64,
	res *cost.Result, cpuNS float64) []string {
	row := []string{x}
	for i := range cfg.Hier.Levels {
		row = append(row,
			fmtCount(float64(stats[i].Misses())),
			fmtCount(res.PerLevel[i].Misses.Total()))
	}
	return append(row, fmtMS(memNS+cpuNS), fmtMS(res.MemoryTimeNS()+cpuNS))
}

// Fig7a: quick-sort misses and time vs relation size.
func Fig7a(cfg Config) *Report {
	cfg = cfg.withDefaults()
	model := cost.MustNew(cfg.Hier)
	r := &Report{
		ID:     "fig7a",
		Title:  "Quick-sort (in-place) vs relation size ‖U‖",
		Header: fig7Header(cfg, "size(U)"),
		Notes:  []string{"w=8; random uniform keys; paper Fig. 7a"},
	}
	for _, sz := range fig7Sizes(cfg) {
		n := sz / 8
		rg := newRig(cfg, 2*sz+(1<<20))
		u := rg.table("U", n, 8, workload.FillUniform)
		stats, memNS := rg.measure(func() { engine.QuickSort(u) })
		p := engine.QuickSortPattern(u.Reg, cfg.Hier.MinCapacity())
		res, err := model.Evaluate(p)
		if err != nil {
			panic(err)
		}
		r.AddRow(fig7Row(cfg, fmtBytes(sz), stats, memNS, res, cpuQuickSort(n))...)
	}
	return r
}

// Fig7b: merge-join misses and time vs relation size (1:1 sorted inputs).
func Fig7b(cfg Config) *Report {
	cfg = cfg.withDefaults()
	model := cost.MustNew(cfg.Hier)
	r := &Report{
		ID:     "fig7b",
		Title:  "Merge-join vs relation size (‖U‖=‖V‖=‖W‖)",
		Header: fig7Header(cfg, "size"),
		Notes:  []string{"sorted 1:1 inputs; paper Fig. 7b"},
	}
	for _, sz := range fig7Sizes(cfg) {
		n := sz / 8
		rg := newRig(cfg, 4*sz+(1<<20))
		u := rg.table("U", n, 8, func(t workload.Keyed, _ *workload.RNG) { workload.FillSorted(t) })
		v := rg.table("V", n, 8, func(t workload.Keyed, _ *workload.RNG) { workload.FillSorted(t) })
		w := rg.table("W", n, 8, nil)
		stats, memNS := rg.measure(func() { engine.MergeJoin(u, v, w) })
		res, err := model.Evaluate(engine.MergeJoinPattern(u.Reg, v.Reg, w.Reg))
		if err != nil {
			panic(err)
		}
		r.AddRow(fig7Row(cfg, fmtBytes(sz), stats, memNS, res, cpuMergeJoin(n))...)
	}
	return r
}

// Fig7c: hash-join misses and time vs relation size; the miss counts
// step up when the hash table ‖H‖ crosses a cache capacity.
func Fig7c(cfg Config) *Report {
	cfg = cfg.withDefaults()
	model := cost.MustNew(cfg.Hier)
	r := &Report{
		ID:     "fig7c",
		Title:  "Hash-join vs relation size (‖U‖=‖V‖=‖W‖)",
		Header: fig7Header(cfg, "size"),
		Notes: []string{
			"uniform 1:1 keys; ‖H‖ = 2·n·16B = 4·size",
			"paper Fig. 7c: step when ‖H‖ exceeds C2 (and the TLB span)",
		},
	}
	for _, sz := range fig7Sizes(cfg) {
		n := sz / 8
		rg := newRig(cfg, 12*sz+(1<<20))
		u := rg.table("U", n, 8, workload.FillPermutation)
		v := rg.table("V", n, 8, workload.FillPermutation)
		w := rg.table("W", n, 8, nil)
		stats, memNS := rg.measure(func() { engine.HashJoin(rg.mem, u, v, w) })
		hReg := engine.HashRegionFor("H", n)
		res, err := model.Evaluate(engine.HashJoinPattern(u.Reg, v.Reg, hReg, w.Reg))
		if err != nil {
			panic(err)
		}
		r.AddRow(fig7Row(cfg, fmtBytes(sz), stats, memNS, res, cpuHashJoin(n))...)
	}
	return r
}

// Fig7d: partitioning misses and time vs the number of partitions m for
// a fixed input; knees appear when m exceeds the TLB entry count and the
// L1/L2 line counts.
func Fig7d(cfg Config) *Report {
	cfg = cfg.withDefaults()
	model := cost.MustNew(cfg.Hier)
	// The input plus output must exceed the TLB span (1 MB on the
	// Origin2000) or the TLB knee cannot appear; 2 MB is the quick-mode
	// minimum that shows it.
	sz := int64(8 << 20)
	if sz > cfg.MaxSize {
		sz = cfg.MaxSize
	}
	if cfg.Quick {
		sz = 2 << 20
	}
	n := sz / 8
	ms := []int64{2, 8, 32, 128, 512, 2048, 8192, 32768, 131072}
	if cfg.Quick {
		ms = []int64{2, 32, 4096}
	}
	r := &Report{
		ID:     "fig7d",
		Title:  fmt.Sprintf("Partitioning ‖U‖=%s vs number of partitions m", fmtBytes(sz)),
		Header: fig7Header(cfg, "m"),
		Notes: []string{
			"paper Fig. 7d: knees at m ≈ TLB entries, then #L1, then #L2 lines",
		},
	}
	for _, m := range ms {
		if m > n/2 {
			continue
		}
		rg := newRig(cfg, 4*sz+(1<<20))
		u := rg.table("U", n, 8, workload.FillUniform)
		var parts *engine.Partitions
		stats, memNS := rg.measure(func() {
			parts = engine.Partition(rg.mem, u, "X", m, engine.HashPartition)
		})
		res, err := model.Evaluate(engine.PartitionPattern(u.Reg, parts.Out.Reg, m))
		if err != nil {
			panic(err)
		}
		r.AddRow(fig7Row(cfg, fmt.Sprintf("%d", m), stats, memNS, res, cpuPartition(n))...)
	}
	return r
}

// Fig7e: partitioned hash-join misses and time vs cluster size ‖Hj‖
// (driven by the partition count m); cost drops when each cluster's hash
// table fits the caches.
func Fig7e(cfg Config) *Report {
	cfg = cfg.withDefaults()
	model := cost.MustNew(cfg.Hier)
	// The plain hash table ‖H‖ = 4·size must exceed C2 (4 MB on the
	// Origin2000) for partitioning to pay off; 2 MB inputs are the
	// quick-mode minimum.
	sz := int64(8 << 20)
	if sz > cfg.MaxSize {
		sz = cfg.MaxSize
	}
	if cfg.Quick {
		sz = 2 << 20
	}
	n := sz / 8
	ms := []int64{1, 4, 16, 64, 256, 1024}
	if cfg.Quick {
		ms = []int64{1, 16}
	}
	r := &Report{
		ID:     "fig7e",
		Title:  fmt.Sprintf("Partitioned hash-join ‖U‖=‖V‖=%s vs cluster hash-table size", fmtBytes(sz)),
		Header: fig7Header(cfg, "‖Hj‖"),
		Notes: []string{
			"m = 1 is plain hash-join; paper Fig. 7e: cost drops once ‖Hj‖ ≤ C2, again once ≤ C1",
		},
	}
	for _, m := range ms {
		if m > n/16 {
			continue
		}
		hj := engine.HashBuckets(n/m) * engine.BucketWidth
		rg := newRig(cfg, 24*sz+(1<<20))
		u := rg.table("U", n, 8, workload.FillPermutation)
		v := rg.table("V", n, 8, workload.FillPermutation)
		w := rg.table("W", n, 8, nil)
		var stats []cachesim.Stats
		var memNS float64
		if m == 1 {
			stats, memNS = rg.measure(func() { engine.HashJoin(rg.mem, u, v, w) })
		} else {
			stats, memNS = rg.measure(func() {
				engine.PartitionedHashJoin(rg.mem, u, v, w, m, engine.HashPartition)
			})
		}
		var p pattern.Pattern
		if m == 1 {
			hReg := engine.HashRegionFor("H", n)
			p = engine.HashJoinPattern(u.Reg, v.Reg, hReg, w.Reg)
		} else {
			p = engine.PartitionedHashJoinPattern(u.Reg, v.Reg, w.Reg, m)
		}
		res, err := model.Evaluate(p)
		if err != nil {
			panic(err)
		}
		cpu := cpuHashJoin(n)
		if m > 1 {
			cpu = cpuPartitionedHashJoin(n)
		}
		r.AddRow(fig7Row(cfg, fmtBytes(hj), stats, memNS, res, cpu)...)
	}
	return r
}
