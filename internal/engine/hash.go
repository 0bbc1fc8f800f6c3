package engine

import (
	"fmt"

	"repro/internal/region"
	"repro/internal/vmem"
)

// Hash table over simulated memory: an open-addressing array of
// fixed-width buckets (key + rowID), sized to a power of two with the
// given load-factor headroom. Building it writes buckets in hash order —
// the "hops back and forth" output cursor the paper models as a random
// traversal of the hash-table region.

// BucketWidth is the byte width of one hash bucket: 8-byte key plus
// 8-byte rowID+1 (0 marks an empty bucket).
const BucketWidth = 16

// HashTable is an open-addressing hash table materialized in vmem.
type HashTable struct {
	Mem   *vmem.Memory
	Reg   *region.Region
	Base  vmem.Addr
	mask  uint64
	shift uint
}

// hashKey is Fibonacci hashing; it scrambles sorted or clustered key
// spaces into uniform bucket indices.
func hashKey(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

// bucketOf derives the bucket index from the *high* multiplicative-hash
// bits. Partitioning functions consume the low bits (hashKey % m), so a
// cluster's hash table would see only every m-th bucket if indexing used
// the low bits too — the classic radix-join pitfall.
func (h *HashTable) bucketOf(key uint64) uint64 {
	return (hashKey(key) >> h.shift) & h.mask
}

// NewHashTable allocates a table with capacity for n entries at roughly
// 50% load (buckets = next power of two ≥ 2n).
func NewHashTable(mem *vmem.Memory, name string, n int64) *HashTable {
	buckets := int64(1)
	bits := uint(0)
	for buckets < 2*n {
		buckets <<= 1
		bits++
	}
	base := mem.Alloc(buckets*BucketWidth, BucketWidth)
	// Buckets start zeroed (vmem is zero-initialized and Alloc never
	// reuses space), so no observed clearing pass is needed.
	r := region.New(name, buckets, BucketWidth)
	r.Base = int64(base)
	return &HashTable{Mem: mem, Reg: r, Base: base, mask: uint64(buckets - 1), shift: 64 - bits}
}

func (h *HashTable) bucketAddr(b uint64) vmem.Addr {
	return h.Base + vmem.Addr(int64(b)*BucketWidth)
}

// Insert stores (key, row). Duplicate keys occupy separate buckets; probes
// find the first. Panics when the table is full.
func (h *HashTable) Insert(key uint64, row int64) {
	b := h.bucketOf(key)
	for probes := uint64(0); probes <= h.mask; probes++ {
		a := h.bucketAddr(b)
		if h.Mem.Load64(a+8) == 0 { // empty bucket
			h.Mem.Store64(a, key)
			h.Mem.Store64(a+8, uint64(row)+1)
			return
		}
		b = (b + 1) & h.mask
	}
	panic(fmt.Sprintf("engine: hash table %s full", h.Reg.Name))
}

// Lookup returns the rowID stored for key, or -1.
func (h *HashTable) Lookup(key uint64) int64 {
	b := h.bucketOf(key)
	for probes := uint64(0); probes <= h.mask; probes++ {
		a := h.bucketAddr(b)
		row := h.Mem.Load64(a + 8)
		if row == 0 {
			return -1
		}
		if h.Mem.Load64(a) == key {
			return int64(row) - 1
		}
		b = (b + 1) & h.mask
	}
	return -1
}

// BuildHash inserts every tuple of in into a fresh hash table.
func BuildHash(mem *vmem.Memory, name string, in *Table) *HashTable {
	h := NewHashTable(mem, name, in.N())
	n := in.N()
	for i := int64(0); i < n; i++ {
		h.Insert(in.Key(i), i)
	}
	return h
}

// HashJoin joins U and V on key (V is the inner/build side) and writes
// matching pairs into out (width ≥ U.W). It returns the number of result
// tuples. Out must have capacity for them.
func HashJoin(mem *vmem.Memory, u, v, out *Table) int64 {
	h := BuildHash(mem, v.Reg.Name+"_hash", v)
	return HashProbe(u, h, out)
}

// HashProbe probes every tuple of u against h and writes matches to out,
// returning the match count. The paper's pattern for the probe phase is
// s_trav(U) ⊙ r_acc(|U|, H) ⊙ s_trav(W): the hash bucket carries the
// rowID, so the inner relation itself is not touched.
func HashProbe(u *Table, h *HashTable, out *Table) int64 {
	var o int64
	n := u.N()
	for i := int64(0); i < n; i++ {
		key := u.Key(i)
		if row := h.Lookup(key); row >= 0 {
			out.CopyTuple(o, u, i)
			o++
		}
	}
	return o
}
