// Package engine is a small column-oriented main-memory query engine in
// the style of Monet, the paper's experimentation platform. Its operators
// (scan, quick-sort, nested-loop / merge / hash join, B+-tree lookup,
// radix partitioning, partitioned hash-join, aggregation) run over a
// simulated flat address space (internal/vmem), so a cache simulator can
// observe the exact address trace — the role the MIPS R10000 hardware
// counters play in the paper.
//
// Every operator has a companion ...Pattern function returning the data
// access pattern the paper's Table 2 assigns to it, so predictions and
// measurements can be compared one-to-one. The operators and their
// pattern descriptions implement the workload side of the paper's
// Section 6 evaluation (the quick-sort, merge-join, hash-join and
// partitioning experiments of Figure 7). Selection, projection and
// duplicate elimination exist here only as patterns the optimizer
// prices; the operators that check those patterns live in the tests.
package engine

import (
	"fmt"

	"repro/internal/region"
	"repro/internal/vmem"
)

// KeyWidth is the width of the join/sort key at the start of each tuple.
const KeyWidth = 8

// Table is a fixed-width relation materialized in simulated memory.
// Tuples are KeyWidth-byte little-endian keys followed by payload bytes.
type Table struct {
	Mem  *vmem.Memory
	Reg  *region.Region
	Base vmem.Addr
}

// NewTable allocates a table of n tuples of width w (w ≥ KeyWidth) in
// mem, aligned to align bytes (use a cache-line size, or 1).
func NewTable(mem *vmem.Memory, name string, n, w, align int64) *Table {
	if w < KeyWidth {
		panic(fmt.Sprintf("engine: tuple width %d below key width %d", w, KeyWidth))
	}
	base := mem.Alloc(n*w, align)
	r := region.New(name, n, w)
	r.Base = int64(base)
	return &Table{Mem: mem, Reg: r, Base: base}
}

// N returns the tuple count.
func (t *Table) N() int64 { return t.Reg.N }

// W returns the tuple width in bytes.
func (t *Table) W() int64 { return t.Reg.W }

// Addr returns the address of tuple i.
func (t *Table) Addr(i int64) vmem.Addr { return t.Base + vmem.Addr(i*t.Reg.W) }

// Key reads the key of tuple i (observed).
func (t *Table) Key(i int64) uint64 { return t.Mem.Load64(t.Addr(i)) }

// TouchTuple observes a read of u bytes of tuple i (u ≤ w; 0 means the
// whole tuple). Operators use it for payload bytes they consume but whose
// contents the simulation does not need.
func (t *Table) TouchTuple(i, u int64) {
	if u <= 0 || u > t.Reg.W {
		u = t.Reg.W
	}
	t.Mem.Touch(t.Addr(i), u)
}

// CopyTuple copies tuple si of src into tuple di of t (observed: one read
// of src width, one write of min(width) bytes).
func (t *Table) CopyTuple(di int64, src *Table, si int64) {
	w := t.Reg.W
	if src.Reg.W < w {
		w = src.Reg.W
	}
	sa, da := src.Addr(si), t.Addr(di)
	src.Mem.Touch(sa, w)
	t.Mem.TouchWrite(da, w)
	copy(t.Mem.Raw(da, w), src.Mem.Raw(sa, w))
}

// Swap exchanges tuples i and j (observed: read+write of both tuples).
func (t *Table) Swap(i, j int64) {
	if i == j {
		return
	}
	w := t.Reg.W
	ai, aj := t.Addr(i), t.Addr(j)
	t.Mem.Touch(ai, w)
	t.Mem.Touch(aj, w)
	t.Mem.TouchWrite(ai, w)
	t.Mem.TouchWrite(aj, w)
	bi, bj := t.Mem.Raw(ai, w), t.Mem.Raw(aj, w)
	for k := int64(0); k < w; k++ {
		bi[k], bj[k] = bj[k], bi[k]
	}
}

// RawKey reads the key of tuple i without observation (setup/verify).
func (t *Table) RawKey(i int64) uint64 {
	return getU64(t.Mem.Raw(t.Addr(i), KeyWidth))
}

// SetRawKey writes the key of tuple i without observation (setup).
func (t *Table) SetRawKey(i int64, v uint64) {
	putU64(t.Mem.Raw(t.Addr(i), KeyWidth), v)
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
