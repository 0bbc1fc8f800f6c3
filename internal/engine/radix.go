package engine

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/vmem"
)

// Multi-pass radix partitioning (Manegold/Boncz/Kersten 2000, the
// algorithm behind the paper's Figure 7d/7e analysis): when the desired
// fan-out m exceeds what the cache and TLB tolerate (the Figure 7d
// knees), partition in P passes of fan-out m^(1/P) each. Every pass
// performs the benign nest pattern with a small cursor count; the data
// is copied P times instead of once — the trade-off the cost model
// quantifies.

// MultiPassPartition partitions in into m = fanout^passes clusters using
// `passes` passes of the given per-pass fanout. Returns the final
// clustering over a freshly allocated output area.
func MultiPassPartition(mem *vmem.Memory, in *Table, name string, fanout int64, passes int, f PartitionFunc) *Partitions {
	if passes < 1 {
		panic("engine: MultiPassPartition needs at least one pass")
	}
	if fanout < 2 {
		panic(fmt.Sprintf("engine: per-pass fanout %d too small", fanout))
	}
	total := int64(1)
	for i := 0; i < passes; i++ {
		total *= fanout
	}

	// Pass p refines every cluster of the previous pass by the digit
	// f(key, total) / (total/fanout^(p+1)) — i.e. most significant
	// digit first, so the final layout is ordered by full cluster id.
	current := []*Table{in}
	var out *Table
	for p := 0; p < passes; p++ {
		div := total
		for i := 0; i <= p; i++ {
			div /= fanout
		}
		// digit(key) = (cluster id / div) mod fanout
		digit := func(key uint64, _ int64) int64 {
			return (f(key, total) / div) % fanout
		}
		var next []*Table
		area := NewTable(mem, fmt.Sprintf("%s_p%d", name, p), in.N(), in.W(), in.W())
		var off int64
		for _, src := range current {
			if src.N() == 0 {
				// Preserve empty clusters so positions stay aligned.
				for j := int64(0); j < fanout; j++ {
					next = append(next, emptyView(mem, area, off, in.W(), fmt.Sprintf("%s_p%d_e", name, p)))
				}
				continue
			}
			parts := partitionInto(mem, src, area, off, digit, fanout)
			next = append(next, parts...)
			off += src.N()
		}
		current = next
		out = area
	}
	return &Partitions{Out: out, Tables: current, M: total}
}

func emptyView(mem *vmem.Memory, area *Table, off, w int64, name string) *Table {
	r := region.New(name, 0, w)
	r.Parent = area.Reg
	r.Base = int64(area.Base) + off*w
	return &Table{Mem: mem, Reg: r, Base: area.Base + vmem.Addr(off*w)}
}

// partitionInto splits src into fanout clusters placed contiguously in
// area starting at tuple offset off. The histogram pass is unobserved
// (as in Partition), the copy pass observed.
func partitionInto(mem *vmem.Memory, src, area *Table, off int64, digit PartitionFunc, fanout int64) []*Table {
	n, w := src.N(), src.W()
	counts := make([]int64, fanout)
	for i := int64(0); i < n; i++ {
		counts[digit(src.RawKey(i), fanout)]++
	}
	tables := make([]*Table, fanout)
	cursors := make([]int64, fanout)
	pos := off
	for j := int64(0); j < fanout; j++ {
		r := region.New(fmt.Sprintf("%s_%d", area.Reg.Name, j), counts[j], w)
		r.Parent = area.Reg
		r.Base = int64(area.Base) + pos*w
		tables[j] = &Table{Mem: mem, Reg: r, Base: area.Base + vmem.Addr(pos*w)}
		pos += counts[j]
	}
	for i := int64(0); i < n; i++ {
		j := digit(src.Key(i), fanout)
		tables[j].CopyTuple(cursors[j], src, i)
		cursors[j]++
	}
	return tables
}

// MultiPassPartitionPattern describes the access pattern of a P-pass
// radix partition: per pass, a sequential read of the previous area
// concurrent with a `fanout`-cursor nest over the next area.
func MultiPassPartitionPattern(in *region.Region, name string, fanout int64, passes int) pattern.Pattern {
	seq := pattern.Seq{}
	src := in
	for p := 0; p < passes; p++ {
		dst := region.New(fmt.Sprintf("%s_p%d", name, p), in.N, in.W)
		seq = append(seq, pattern.Conc{
			pattern.STrav{R: src},
			pattern.Nest{R: dst, M: fanout, Inner: pattern.InnerSTrav, Order: pattern.OrderRandom},
		})
		src = dst
	}
	if len(seq) == 1 {
		return seq[0]
	}
	return seq
}
