package engine

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/vmem"
)

// A bulk-loaded B+-tree over simulated memory. The paper models "more
// complex structures like trees ... by regions with R.n representing the
// number of nodes and R.w the size of a single node"; accordingly each
// tree level is one data region, and a batch of lookups performs
// concurrent random accesses into every level's region — upper levels
// are small and cache-resident, so the model predicts (and the
// simulator confirms) that lookup cost is dominated by the lowest
// levels that exceed the cache. This is the access structure behind the
// cache-conscious index work the paper cites (Rao/Ross 1999, 2000).

// BTreeEntryWidth is the byte width of one node entry: key + payload
// (child node index for internal nodes, rowID for leaves).
const BTreeEntryWidth = 16

// BTree is an immutable, bulk-loaded B+-tree.
type BTree struct {
	Mem *vmem.Memory
	// Fanout is the number of entries per node.
	Fanout int64
	// Levels holds one region per tree level, root first; leaves last.
	// Level regions count nodes, not entries.
	Levels []*region.Region
	// bases[i] is the base address of level i's node array.
	bases []vmem.Addr
	// counts[i] is the number of entries (not nodes) in level i.
	counts []int64
}

// NodeWidth returns the byte width of one node.
func (t *BTree) NodeWidth() int64 { return t.Fanout * BTreeEntryWidth }

// BulkLoadBTree builds a B+-tree over the key-sorted table in with the
// given fanout (entries per node, ≥ 2). Leaf entries are (key, rowID);
// internal entries are (maxKeyOfChild, childIndex).
func BulkLoadBTree(mem *vmem.Memory, name string, in *Table, fanout int64) *BTree {
	if fanout < 2 {
		panic(fmt.Sprintf("engine: B+-tree fanout %d too small", fanout))
	}
	n := in.N()
	if n == 0 {
		panic("engine: cannot bulk-load an empty B+-tree")
	}
	t := &BTree{Mem: mem, Fanout: fanout}
	nodeW := t.NodeWidth()

	// Build the leaf level (level indices grow towards the root during
	// construction; reversed at the end).
	type level struct {
		base    vmem.Addr
		entries int64
		nodes   int64
		reg     *region.Region
	}
	var levels []level

	leafNodes := (n + fanout - 1) / fanout
	leafBase := mem.Alloc(leafNodes*nodeW, nodeW)
	for i := int64(0); i < n; i++ {
		// Bulk load is setup, not the measured workload: unobserved.
		node, slot := i/fanout, i%fanout
		a := leafBase + vmem.Addr(node*nodeW+slot*BTreeEntryWidth)
		putU64(mem.Raw(a, 8), in.RawKey(i))
		putU64(mem.Raw(a+8, 8), uint64(i)+1)
	}
	reg := region.New(name+"_L0", leafNodes, nodeW)
	reg.Base = int64(leafBase)
	levels = append(levels, level{leafBase, n, leafNodes, reg})

	// Build internal levels until one node remains.
	for levels[len(levels)-1].nodes > 1 {
		child := levels[len(levels)-1]
		entries := child.nodes
		nodes := (entries + fanout - 1) / fanout
		base := mem.Alloc(nodes*nodeW, nodeW)
		for c := int64(0); c < entries; c++ {
			// Separator = max key in child node c.
			lastSlot := fanout - 1
			if c == child.nodes-1 && child.entries%fanout != 0 {
				lastSlot = child.entries%fanout - 1
			}
			ca := child.base + vmem.Addr(c*nodeW+lastSlot*BTreeEntryWidth)
			sep := getU64(mem.Raw(ca, 8))
			node, slot := c/fanout, c%fanout
			a := base + vmem.Addr(node*nodeW+slot*BTreeEntryWidth)
			putU64(mem.Raw(a, 8), sep)
			putU64(mem.Raw(a+8, 8), uint64(c)+1)
		}
		reg := region.New(fmt.Sprintf("%s_L%d", name, len(levels)), nodes, nodeW)
		reg.Base = int64(base)
		levels = append(levels, level{base, entries, nodes, reg})
	}

	// Root first.
	for i := len(levels) - 1; i >= 0; i-- {
		t.Levels = append(t.Levels, levels[i].reg)
		t.bases = append(t.bases, levels[i].base)
		t.counts = append(t.counts, levels[i].entries)
	}
	return t
}

// Lookup descends from the root and returns the rowID for key, or −1.
// Every visited node is touched as one access of the node width (the
// region-granule access the model assumes).
func (t *BTree) Lookup(key uint64) int64 {
	nodeW := t.NodeWidth()
	node := int64(0)
	for lvl := 0; lvl < len(t.Levels); lvl++ {
		base := t.bases[lvl] + vmem.Addr(node*nodeW)
		t.Mem.Touch(base, nodeW)
		// In-node search on raw bytes (the touch above accounted for the
		// node's cache footprint).
		entriesInNode := t.entriesIn(lvl, node)
		leaf := lvl == len(t.Levels)-1
		found := int64(-1)
		for s := int64(0); s < entriesInNode; s++ {
			a := base + vmem.Addr(s*BTreeEntryWidth)
			k := getU64(t.Mem.Raw(a, 8))
			if leaf {
				if k == key {
					return int64(getU64(t.Mem.Raw(a+8, 8))) - 1
				}
				continue
			}
			if key <= k {
				found = int64(getU64(t.Mem.Raw(a+8, 8))) - 1
				break
			}
		}
		if leaf {
			return -1
		}
		if found < 0 {
			return -1 // beyond the largest key
		}
		node = found
	}
	return -1
}

// entriesIn returns the entry count of the given node at a level.
func (t *BTree) entriesIn(lvl int, node int64) int64 {
	total := t.counts[lvl]
	full := total / t.Fanout
	switch {
	case node < full:
		return t.Fanout
	case node == full && total%t.Fanout != 0:
		return total % t.Fanout
	default:
		return t.Fanout
	}
}

// LookupBatchPattern describes k random lookups: concurrent random
// accesses into every level region (each lookup touches one node per
// level).
func (t *BTree) LookupBatchPattern(k int64) pattern.Pattern {
	conc := pattern.Conc{}
	for _, lr := range t.Levels {
		conc = append(conc, pattern.RAcc{R: lr, Count: k})
	}
	return conc
}

// BTreeLevelRegions returns the per-level region geometry BulkLoadBTree
// would build for n keys with the given fanout — same names (name_L0 =
// leaves), node counts, node widths and root-first order — without
// touching memory. The analytical validation backend uses it to
// construct lookup patterns for a tree that is never materialized.
func BTreeLevelRegions(name string, n, fanout int64) []*region.Region {
	if fanout < 2 {
		panic(fmt.Sprintf("engine: B+-tree fanout %d too small", fanout))
	}
	if n <= 0 {
		panic("engine: cannot size an empty B+-tree")
	}
	nodeW := fanout * BTreeEntryWidth
	var levels []*region.Region // leaf first during construction
	nodes := (n + fanout - 1) / fanout
	levels = append(levels, region.New(name+"_L0", nodes, nodeW))
	for nodes > 1 {
		nodes = (nodes + fanout - 1) / fanout
		levels = append(levels, region.New(fmt.Sprintf("%s_L%d", name, len(levels)), nodes, nodeW))
	}
	// Root first, like BTree.Levels.
	for i, j := 0, len(levels)-1; i < j; i, j = i+1, j-1 {
		levels[i], levels[j] = levels[j], levels[i]
	}
	return levels
}

// BTreeLookupBatchPattern is LookupBatchPattern over a pure geometry
// from BTreeLevelRegions.
func BTreeLookupBatchPattern(levels []*region.Region, k int64) pattern.Pattern {
	conc := pattern.Conc{}
	for _, lr := range levels {
		conc = append(conc, pattern.RAcc{R: lr, Count: k})
	}
	return conc
}
