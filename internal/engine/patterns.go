package engine

import (
	"repro/internal/pattern"
	"repro/internal/region"
)

// Pattern descriptions of the engine's operators, matching the paper's
// Table 2. Each function returns the compound access pattern whose cost
// the model predicts for the corresponding operator; experiments compare
// that prediction against the simulator's counted misses for the same
// run.

// HashBuckets returns the bucket count NewHashTable will choose for n
// entries (next power of two ≥ 2n), so patterns can describe a hash
// table before it exists.
func HashBuckets(n int64) int64 {
	b := int64(1)
	for b < 2*n {
		b <<= 1
	}
	return b
}

// HashRegionFor returns the region descriptor of the hash table that
// NewHashTable would build for n entries.
func HashRegionFor(name string, n int64) *region.Region {
	return region.New(name, HashBuckets(n), BucketWidth)
}

// AggRegionFor returns the region descriptor of the aggregation table
// NewAggTable would build for n groups.
func AggRegionFor(name string, n int64) *region.Region {
	b := int64(1)
	for b < 2*n {
		b <<= 1
	}
	return region.New(name, b, AggBucketWidth)
}

// ScanPattern is s_trav(U, u): a table scan touching u bytes per tuple.
func ScanPattern(u *region.Region, bytesUsed int64) pattern.Pattern {
	return pattern.STrav{R: u, U: bytesUsed}
}

// SelectPattern is s_trav(U) ⊙ s_trav(W): sequential input and output.
func SelectPattern(in, out *region.Region) pattern.Pattern {
	return pattern.Conc{pattern.STrav{R: in}, pattern.STrav{R: out}}
}

// ProjectPattern is s_trav(U, u) ⊙ s_trav(W).
func ProjectPattern(in, out *region.Region, u int64) pattern.Pattern {
	return pattern.Conc{pattern.STrav{R: in, U: u}, pattern.STrav{R: out}}
}

// QuickSortPattern describes in-place quick-sort over r: per recursion
// level two concurrent sequential traversals over the segment halves,
// recursing depth-first (the paper's ⊕ over the ld(n) levels of
// ⊙-combined half traversals).
//
// pruneBytes bounds the recursion: once a segment is at most pruneBytes
// (callers pass the smallest cache capacity), all deeper levels run
// cache-resident at every level and contribute no further misses, so the
// pattern tree stops there. Pass 0 to force full recursion down to
// two-tuple segments (exponential in ld(n) — tests only).
func QuickSortPattern(r *region.Region, pruneBytes int64) pattern.Pattern {
	if r.N <= 2 {
		return pattern.STrav{R: r}
	}
	a, b := r.Halves()
	part := pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}}
	if a.N <= 2 || (pruneBytes > 0 && r.Size() <= pruneBytes) {
		return part
	}
	return pattern.Seq{
		part,
		QuickSortPattern(a, pruneBytes),
		QuickSortPattern(b, pruneBytes),
	}
}

// MergeJoinPattern is s_trav(U) ⊙ s_trav(V) ⊙ s_trav(W).
func MergeJoinPattern(u, v, w *region.Region) pattern.Pattern {
	return pattern.Conc{
		pattern.STrav{R: u},
		pattern.STrav{R: v},
		pattern.STrav{R: w},
	}
}

// NestedLoopJoinPattern is s_trav(U) ⊙ rs_trav(|U|, uni, V) ⊙ s_trav(W).
func NestedLoopJoinPattern(u, v, w *region.Region) pattern.Pattern {
	return pattern.Conc{
		pattern.STrav{R: u},
		pattern.RSTrav{R: v, Repeats: u.N, Dir: pattern.Uni},
		pattern.STrav{R: w},
	}
}

// HashBuildPattern is s_trav(V) ⊙ r_trav(H): sequential input, randomly
// hopping output cursor over the hash table.
func HashBuildPattern(v, h *region.Region) pattern.Pattern {
	return pattern.Conc{pattern.STrav{R: v}, pattern.RTrav{R: h}}
}

// HashProbePattern is s_trav(U) ⊙ r_acc(|U|, H) ⊙ s_trav(W).
func HashProbePattern(u, h, w *region.Region) pattern.Pattern {
	return pattern.Conc{
		pattern.STrav{R: u},
		pattern.RAcc{R: h, Count: u.N},
		pattern.STrav{R: w},
	}
}

// HashJoinPattern is the paper's
// h_join(U,V,W) = hash_build(V,H) ⊕ hash_probe(U,H,W).
func HashJoinPattern(u, v, h, w *region.Region) pattern.Pattern {
	return pattern.Seq{
		HashBuildPattern(v, h),
		HashProbePattern(u, h, w),
	}
}

// PartitionPattern is s_trav(U) ⊙ nest(X, m, s_trav(X_j), rnd): a
// sequential input traversal concurrent with m sequential output
// cursors picked in (hash-) random order.
func PartitionPattern(in, out *region.Region, m int64) pattern.Pattern {
	return pattern.Conc{
		pattern.STrav{R: in},
		pattern.Nest{R: out, M: m, Inner: pattern.InnerSTrav, Order: pattern.OrderRandom},
	}
}

// PartitionedHashJoinPattern is
// part(U,X) ⊕ part(V,Y) ⊕ ⊕_j h_join(X_j, Y_j, H_j, W_j).
// The X/Y cluster regions and the per-cluster hash-table and output
// regions are derived with average cluster sizes |U|/m and |V|/m.
func PartitionedHashJoinPattern(u, v, w *region.Region, m int64) pattern.Pattern {
	x := region.New(u.Name+"p", u.N, u.W)
	y := region.New(v.Name+"p", v.N, v.W)
	seq := pattern.Seq{
		PartitionPattern(u, x, m),
		PartitionPattern(v, y, m),
	}
	for j := int64(0); j < m; j++ {
		xj := x.Sub(j, m)
		yj := y.Sub(j, m)
		if yj.N == 0 || xj.N == 0 {
			continue
		}
		hj := HashRegionFor(yj.Name+"h", yj.N)
		wj := w.Sub(j, m)
		seq = append(seq, HashJoinPattern(xj, yj, hj, wj).(pattern.Seq)...)
	}
	return seq
}

// HashAggregatePattern is s_trav(U) ⊙ r_acc(|U|, A) over the aggregate
// table A.
func HashAggregatePattern(in, agg *region.Region) pattern.Pattern {
	return pattern.Conc{
		pattern.STrav{R: in},
		pattern.RAcc{R: agg, Count: in.N},
	}
}

// HashDedupPattern is s_trav(U) ⊙ r_acc(|U|, H) ⊙ s_trav(W).
func HashDedupPattern(in, h, out *region.Region) pattern.Pattern {
	return pattern.Conc{
		pattern.STrav{R: in},
		pattern.RAcc{R: h, Count: in.N},
		pattern.STrav{R: out},
	}
}

// SortDedupPattern is qsort(U) ⊕ [s_trav(U) ⊙ s_trav(W)].
func SortDedupPattern(in, out *region.Region, pruneBytes int64) pattern.Pattern {
	return pattern.Seq{
		QuickSortPattern(in, pruneBytes),
		pattern.Conc{pattern.STrav{R: in}, pattern.STrav{R: out}},
	}
}
