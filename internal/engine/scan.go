package engine

// The table scan: a sequential traversal of its input (the paper's
// Table 2 s_trav pattern).

// ScanSum performs a full table scan, reading u bytes of every tuple
// (0 = whole tuple) and returning the sum of all keys — an aggregate that
// forces the traversal without any output region.
func ScanSum(t *Table, u int64) uint64 {
	var sum uint64
	n := t.N()
	if u > 0 && u < KeyWidth {
		// The caller wants fewer bytes than the key; touch that many but
		// do not decode a key.
		for i := int64(0); i < n; i++ {
			t.TouchTuple(i, u)
		}
		return 0
	}
	for i := int64(0); i < n; i++ {
		sum += t.Key(i)
		if u <= 0 || u > KeyWidth {
			rest := t.W() - KeyWidth
			if u > 0 {
				rest = u - KeyWidth
			}
			if rest > 0 {
				t.Mem.Touch(t.Addr(i)+KeyWidth, rest)
			}
		}
	}
	return sum
}
