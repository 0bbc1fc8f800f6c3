package engine

import "repro/internal/vmem"

// Operators and helpers only the tests run. The operators execute the
// access patterns SelectPattern, ProjectPattern and HashDedupPattern
// describe, so the operator tests can hold those patterns against the
// simulator's measured misses.

// Select copies every tuple of in whose key satisfies pred into out,
// returning the number of qualifying tuples. Out must have capacity for
// all of them and at least the input width.
func Select(in, out *Table, pred func(uint64) bool) int64 {
	var o int64
	n := in.N()
	for i := int64(0); i < n; i++ {
		if pred(in.Key(i)) {
			out.CopyTuple(o, in, i)
			o++
		}
	}
	return o
}

// Project copies u bytes of every input tuple into the (narrower) output
// table; out.W() must equal u and u ≥ KeyWidth so keys survive.
func Project(in, out *Table, u int64) {
	if out.W() != u {
		panic("engine: Project output width must equal u")
	}
	n := in.N()
	for i := int64(0); i < n; i++ {
		// CopyTuple touches exactly u = out.W() bytes of the input tuple.
		out.CopyTuple(i, in, i)
	}
}

// HashDedup writes one representative tuple per distinct key of in to
// out, returning the number of distinct keys. It uses a hash table as
// the "seen" set.
func HashDedup(mem *vmem.Memory, in, out *Table) int64 {
	h := NewHashTable(mem, in.Reg.Name+"_seen", in.N())
	var o int64
	n := in.N()
	for i := int64(0); i < n; i++ {
		key := in.Key(i)
		if h.Lookup(key) < 0 {
			h.Insert(key, i)
			out.CopyTuple(o, in, i)
			o++
		}
	}
	return o
}

// Keys returns all keys unobserved.
func (t *Table) Keys() []uint64 {
	out := make([]uint64, t.Reg.N)
	for i := int64(0); i < t.Reg.N; i++ {
		out[i] = t.RawKey(i)
	}
	return out
}

// IsSortedRaw reports (unobserved) whether keys are non-decreasing.
func (t *Table) IsSortedRaw() bool {
	for i := int64(1); i < t.Reg.N; i++ {
		if t.RawKey(i-1) > t.RawKey(i) {
			return false
		}
	}
	return true
}

// Groups returns (unobserved) the number of non-empty buckets.
func (a *AggTable) Groups() int64 {
	var g int64
	for b := int64(0); b < a.Reg.N; b++ {
		if getU64(a.Mem.Raw(a.bucketAddr(uint64(b))+8, 8)) != 0 {
			g++
		}
	}
	return g
}

// FillSortedStep sets keys to i*step (sorted with gaps, so joins have
// controllable selectivity).
func FillSortedStep(t *Table, step uint64) {
	for i := int64(0); i < t.N(); i++ {
		t.SetRawKey(i, uint64(i)*step)
	}
}

// FillMod sets key i to i mod groups — a grouping column with exactly
// `groups` distinct values, stored round-robin.
func FillMod(t *Table, groups int64) {
	for i := int64(0); i < t.N(); i++ {
		t.SetRawKey(i, uint64(i%groups))
	}
}
