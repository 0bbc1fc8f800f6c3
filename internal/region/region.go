// Package region implements the paper's first abstraction: a data
// structure is modeled as a data region R consisting of R.n data items of
// width R.w bytes. A relational table is a region with n = cardinality
// and w = tuple width; a tree is a region with n = node count and w =
// node size; a hash table is a region over its buckets, and so on.
//
// Regions carry identity (pointer identity) because the cost model's
// cache-state bookkeeping (Section 5 of the paper) tracks which fraction
// of which region remains cached between patterns.
package region

import (
	"fmt"
	"strconv"
)

// Region is a data region R with R.n items of R.w bytes each.
type Region struct {
	// Name is used in pattern descriptions ("U", "V", "H", ...).
	Name string
	// N is the number of data items (the region's length R.n).
	N int64
	// W is the width of one item in bytes (R.w).
	W int64
	// Base is the simulated base address when the region is materialized
	// in vmem; purely informational for the cost model.
	Base int64
	// Parent links a sub-region (created via Sub) to the region it was
	// carved from. The cost model's cache-state bookkeeping uses the
	// chain: if an ancestor region is resident, so is the sub-region.
	Parent *Region
}

// New returns a region with the given name, length and width.
func New(name string, n, w int64) *Region {
	if n < 0 || w <= 0 {
		panic(fmt.Sprintf("region: invalid region %s with n=%d w=%d", name, n, w))
	}
	return &Region{Name: name, N: n, W: w}
}

// Size returns ||R|| = R.n * R.w in bytes.
func (r *Region) Size() int64 { return r.N * r.W }

// Lines returns |R|_B = ceil(||R|| / B), the number of cache lines of
// size B covered by the region.
func (r *Region) Lines(lineSize int64) int64 {
	if lineSize <= 0 {
		panic("region: non-positive line size")
	}
	return ceilDiv(r.Size(), lineSize)
}

// ItemsInCache returns R.n|C = C / R.w, the number of items that fit in a
// cache of capacity C (the paper's n-sub-C).
func (r *Region) ItemsInCache(capacity int64) int64 {
	if r.W <= 0 {
		return 0
	}
	return capacity / r.W
}

// Sub returns the j-th of m equal sub-regions of r (used by the nest
// pattern and by partitioning). Item counts are split as evenly as
// possible; the first (n mod m) sub-regions get one extra item.
func (r *Region) Sub(j, m int64) *Region {
	if m <= 0 || j < 0 || j >= m {
		panic(fmt.Sprintf("region: invalid sub-region %d of %d", j, m))
	}
	base, extra := r.N/m, r.N%m
	n := base
	if j < extra {
		n++
	}
	return &Region{
		Name:   r.Name + "_" + strconv.FormatInt(j, 10),
		N:      n,
		W:      r.W,
		Parent: r,
	}
}

// Halves splits r into two sub-regions of (almost) equal length, used by
// the recursive quick-sort pattern.
func (r *Region) Halves() (*Region, *Region) {
	return r.Sub(0, 2), r.Sub(1, 2)
}

// Ancestors returns the parent chain from the immediate parent outwards.
func (r *Region) Ancestors() []*Region {
	var out []*Region
	for p := r.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// SubSize returns the item count of an average sub-region when r is split
// m ways (R.n / m as a float, since the model works with expectations).
func (r *Region) SubSize(m int64) float64 {
	if m <= 0 {
		panic("region: non-positive sub-region count")
	}
	return float64(r.N) / float64(m)
}

// String renders the region as "Name[n=...,w=...]".
func (r *Region) String() string {
	return fmt.Sprintf("%s[n=%d,w=%d]", r.Name, r.N, r.W)
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
