package costir_test

// FuzzCompileParity decodes arbitrary bytes into a bounded random
// pattern tree and checks the headline guarantee of the cost IR: the
// compiled evaluator and the reference tree walker agree on every
// hierarchy level within 1e-9 relative. It also holds the program's
// canonical form to the concatenating oracle (oracle_test.go). (This test lives in an
// external test package so it can drive both evaluators through
// internal/cost without an import cycle.)

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/costir"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

// treeBuilder consumes fuzz bytes to make bounded structural choices.
type treeBuilder struct {
	data []byte
	pos  int
	// nodes bounds total tree size so deep ⊕/⊙ nests stay cheap.
	nodes int
	// interned shares one *region.Region per identity (name, n, w,
	// sub-region coordinates), as real pattern builders do: the tree
	// walker keys cache state by pointer, the IR by canonical identity,
	// and the two coincide exactly when equal regions share a pointer.
	interned map[string]*region.Region
}

func (b *treeBuilder) byte() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	c := b.data[b.pos]
	b.pos++
	return c
}

// val returns a byte-derived value in [1, bound].
func (b *treeBuilder) val(bound int64) int64 {
	return int64(b.byte())%bound + 1
}

// region derives a bounded region; geometry variety (items below one
// line, line-straddling widths, cache-busting sizes) comes from the
// fuzz bytes.
func (b *treeBuilder) region() *region.Region {
	names := [6]string{"U", "V", "W", "H", "X", "Y"}
	name := names[int(b.byte())%len(names)]
	n := b.val(1 << 14)
	w := b.val(256)
	key := fmt.Sprintf("%s|%d|%d", name, n, w)
	r := b.intern(key, func() *region.Region { return region.New(name, n, w) })
	if b.byte()%4 == 0 {
		// Sometimes hand out a sub-region, exercising parent-chain
		// residency inheritance. The intern key is the *resulting*
		// canonical identity (name, geometry, parent), not the (j, m)
		// construction parameters: different splits can carve
		// identically named and sized sub-regions, which the IR folds.
		m := b.val(8)
		sub := r.Sub(b.val(m)-1, m)
		return b.intern(fmt.Sprintf("%s|%d|%d<%s", sub.Name, sub.N, sub.W, key),
			func() *region.Region { return sub })
	}
	return r
}

// intern returns the canonical pointer for a region identity, creating
// it via mk on first sight.
func (b *treeBuilder) intern(key string, mk func() *region.Region) *region.Region {
	if b.interned == nil {
		b.interned = map[string]*region.Region{}
	}
	if r, ok := b.interned[key]; ok {
		return r
	}
	r := mk()
	b.interned[key] = r
	return r
}

func (b *treeBuilder) pattern(depth int) pattern.Pattern {
	b.nodes++
	kind := b.byte() % 8
	if depth >= 3 || b.nodes >= 24 {
		kind %= 6 // leaf only
	}
	switch kind {
	case 0:
		r := b.region()
		return pattern.STrav{R: r, U: b.u(r), NoSeq: b.byte()%2 == 0}
	case 1:
		r := b.region()
		return pattern.RSTrav{R: r, U: b.u(r), Repeats: b.val(8),
			Dir: pattern.Direction(b.byte() % 2), NoSeq: b.byte()%2 == 0}
	case 2:
		r := b.region()
		return pattern.RTrav{R: r, U: b.u(r)}
	case 3:
		r := b.region()
		return pattern.RRTrav{R: r, U: b.u(r), Repeats: b.val(8)}
	case 4:
		r := b.region()
		return pattern.RAcc{R: r, U: b.u(r), Count: b.val(1 << 12)}
	case 5:
		r := b.region()
		return pattern.Nest{R: r, M: b.val(64),
			Inner: pattern.InnerKind(b.byte() % 3), U: b.u(r), Count: b.val(256),
			Order: pattern.Order(b.byte() % 3), NoSeq: b.byte()%2 == 0}
	case 6:
		k := int(b.val(3)) + 1
		seq := make(pattern.Seq, 0, k)
		for i := 0; i < k; i++ {
			seq = append(seq, b.pattern(depth+1))
		}
		return seq
	default:
		k := int(b.val(3)) + 1
		conc := make(pattern.Conc, 0, k)
		for i := 0; i < k; i++ {
			conc = append(conc, b.pattern(depth+1))
		}
		return conc
	}
}

// u yields a bytes-used parameter: usually 0 (full width), sometimes a
// partial use within the region's width.
func (b *treeBuilder) u(r *region.Region) int64 {
	if b.byte()%3 != 0 {
		return 0
	}
	return b.val(r.W)
}

func FuzzCompileParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01})
	f.Add([]byte("seq-conc-nesting-exercise-0123456789"))
	f.Add([]byte{6, 2, 7, 1, 3, 7, 2, 5, 0, 4, 6, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{7, 3, 6, 3, 7, 3, 5, 5, 5, 5, 0, 0, 0, 0, 9, 9, 9, 9, 2, 4, 8, 16, 32, 64})

	hiers := []*hardware.Hierarchy{
		hardware.SmallTest(),
		hardware.Origin2000(),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &treeBuilder{data: data}
		p := b.pattern(0)
		if err := pattern.Validate(p); err != nil {
			t.Fatalf("generator produced an invalid pattern %v: %v", p, err)
		}
		prog, err := costir.Compile(p)
		if err != nil {
			t.Fatalf("Compile(%v): %v", p, err)
		}
		if got, want := prog.Canonical(), oracleCanonical(p); got != want {
			t.Fatalf("Canonical() of %v differs from the concatenating oracle:\n  got  %q\n  want %q", p, got, want)
		}
		for _, h := range hiers {
			m := cost.MustNew(h)
			ref, err := m.EvaluateTree(p)
			if err != nil {
				t.Fatalf("EvaluateTree(%v): %v", p, err)
			}
			got := m.EvaluateCompiled(prog)
			for li := range ref.PerLevel {
				for _, pair := range [2][2]float64{
					{ref.PerLevel[li].Misses.Seq, got.PerLevel[li].Misses.Seq},
					{ref.PerLevel[li].Misses.Rnd, got.PerLevel[li].Misses.Rnd},
				} {
					want, have := pair[0], pair[1]
					diff := math.Abs(want - have)
					if mag := math.Max(math.Abs(want), math.Abs(have)); mag > 1 {
						diff /= mag
					}
					if diff > 1e-9 {
						t.Fatalf("parity violated on %s level %s for %v:\n  tree: %+v\n  ir:   %+v",
							h.Name, h.Levels[li].Name, p, ref.PerLevel[li].Misses, got.PerLevel[li].Misses)
					}
				}
			}
		}
	})
}
