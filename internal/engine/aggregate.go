package engine

import (
	"repro/internal/region"
	"repro/internal/vmem"
)

// Aggregation. The paper notes aggregation and duplicate elimination are
// implemented via hashing or sorting and perform the respective access
// patterns; the engine runs hash aggregation (a sequential input
// traversal concurrent with random access to an aggregate table).
// HashDedupPattern and SortDedupPattern describe duplicate elimination.

// AggTable is a hash-addressed aggregation table: buckets of
// (key, count, sum) = 24 bytes.
type AggTable struct {
	Mem   *vmem.Memory
	Reg   *region.Region
	Base  vmem.Addr
	mask  uint64
	shift uint
}

// AggBucketWidth is the byte width of one aggregation bucket.
const AggBucketWidth = 24

// NewAggTable allocates an aggregation table for up to n groups.
func NewAggTable(mem *vmem.Memory, name string, n int64) *AggTable {
	buckets := int64(1)
	bits := uint(0)
	for buckets < 2*n {
		buckets <<= 1
		bits++
	}
	base := mem.Alloc(buckets*AggBucketWidth, 8)
	r := region.New(name, buckets, AggBucketWidth)
	r.Base = int64(base)
	return &AggTable{Mem: mem, Reg: r, Base: base, mask: uint64(buckets - 1), shift: 64 - bits}
}

func (a *AggTable) bucketAddr(b uint64) vmem.Addr {
	return a.Base + vmem.Addr(int64(b)*AggBucketWidth)
}

// Add accumulates value into key's group.
func (a *AggTable) Add(key, value uint64) {
	// High multiplicative-hash bits, for the same reason as HashTable.
	b := (hashKey(key) >> a.shift) & a.mask
	for {
		addr := a.bucketAddr(b)
		cnt := a.Mem.Load64(addr + 8)
		if cnt == 0 {
			a.Mem.Store64(addr, key)
			a.Mem.Store64(addr+8, 1)
			a.Mem.Store64(addr+16, value)
			return
		}
		if a.Mem.Load64(addr) == key {
			a.Mem.Store64(addr+8, cnt+1)
			a.Mem.Store64(addr+16, a.Mem.Load64(addr+16)+value)
			return
		}
		b = (b + 1) & a.mask
	}
}

// HashAggregate groups in by key modulo groups (key % groups acts as the
// grouping attribute) and sums the keys per group, returning the
// aggregation table.
func HashAggregate(mem *vmem.Memory, in *Table, groups int64) *AggTable {
	agg := NewAggTable(mem, in.Reg.Name+"_agg", groups)
	n := in.N()
	for i := int64(0); i < n; i++ {
		k := in.Key(i)
		agg.Add(k%uint64(groups), k)
	}
	return agg
}
