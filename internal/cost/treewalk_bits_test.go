package cost

// TestTreeWalkBits pins the exact float64 bits of the tree walker:
// EvaluateTree's misses per level, and every Explain row's label,
// depth, kind, per-level misses and TimeNS, for the engine's operator
// patterns and seeded random trees on three hierarchies. The walker
// keys cache state by a Go map, so the test also catches any sum whose
// rounding follows map iteration order: such a sum differs between
// runs of the same binary.
//
// Each line of the corpus holds one pattern on one hierarchy: the
// EvaluateTree bits verbatim, then the row count and a digest of the
// Explain rows. Regenerate after an intentional model change with:
//
//	go test ./internal/cost -run TestTreeWalkBits -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
)

var update = flag.Bool("update", false, "rewrite the tree-walk bits corpus instead of diffing against it")

// operatorPatterns is every pattern shape the engine and planner emit,
// including the 256-way partitioned hash join (the heaviest: >500
// sub-patterns, >700 regions, exercising the bounded-state path).
func operatorPatterns() []pattern.Pattern {
	n := int64(1 << 18)
	u := region.New("U", n, 16)
	v := region.New("V", n, 16)
	w := region.New("W", n, 16)
	h := engine.HashRegionFor("H", n)
	agg := engine.AggRegionFor("A", 1024)
	return []pattern.Pattern{
		engine.ScanPattern(u, 8),
		engine.SelectPattern(u, w),
		engine.ProjectPattern(u, w, 8),
		engine.MergeJoinPattern(u, v, w),
		engine.NestedLoopJoinPattern(region.New("U", 2048, 16), region.New("V", 2048, 16), region.New("W", 2048, 16)),
		engine.HashBuildPattern(v, h),
		engine.HashProbePattern(u, h, w),
		engine.HashJoinPattern(u, v, h, w),
		engine.PartitionPattern(u, region.New("X", n, 16), 64),
		engine.PartitionedHashJoinPattern(u, v, w, 16),
		engine.PartitionedHashJoinPattern(u, v, w, 256),
		engine.HashAggregatePattern(u, agg),
		engine.HashDedupPattern(u, h, w),
		engine.SortDedupPattern(u, w, 32<<10),
		engine.QuickSortPattern(u, 32<<10),
		engine.QuickSortPattern(region.New("Q", 4096, 16), 0),
	}
}

// treeWalkPatterns is the corpus: the operator patterns, then 400
// seeded random trees.
func treeWalkPatterns() []pattern.Pattern {
	pats := operatorPatterns()
	gen := newPatternGen(20261021)
	for i := 0; i < 400; i++ {
		pats = append(pats, gen.pattern(3))
	}
	return pats
}

func missBits(m Misses) string {
	return fmt.Sprintf("%x/%x", math.Float64bits(m.Seq), math.Float64bits(m.Rnd))
}

// treeWalkDump returns EvaluateTree's per-level bits of p, and one line
// per Explain row. It fails the test unless the Explain root equals
// EvaluateTree bit for bit.
func treeWalkDump(t *testing.T, m *Model, p pattern.Pattern) (tree string, rows []string) {
	t.Helper()
	res, err := m.EvaluateTree(p)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := m.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]string, len(res.PerLevel))
	for i, lr := range res.PerLevel {
		levels[i] = missBits(lr.Misses)
		if got := exp.Total().PerLevel[i]; got != lr.Misses {
			t.Errorf("%s level %s: Explain root %s != EvaluateTree %s\npattern: %s",
				m.Hierarchy().Name, lr.Level.Name, missBits(got), levels[i], p)
		}
	}
	if got, want := exp.Total().TimeNS, res.MemoryTimeNS(); got != want {
		t.Errorf("%s: Explain root TimeNS %x != EvaluateTree %x\npattern: %s",
			m.Hierarchy().Name, math.Float64bits(got), math.Float64bits(want), p)
	}
	for _, n := range exp.Nodes {
		var b strings.Builder
		fmt.Fprintf(&b, "%d %s %q", n.Depth, n.Kind, n.Pattern)
		for _, mi := range n.PerLevel {
			b.WriteString(" " + missBits(mi))
		}
		fmt.Fprintf(&b, " %x", math.Float64bits(n.TimeNS))
		rows = append(rows, b.String())
	}
	return strings.Join(levels, " "), rows
}

func TestTreeWalkBits(t *testing.T) {
	models := []*Model{
		MustNew(hardware.Origin2000()),
		MustNew(hardware.SmallTest()),
		MustNew(hardware.ModernX86()),
	}
	var got strings.Builder
	for i, p := range treeWalkPatterns() {
		for _, m := range models {
			tree, rows := treeWalkDump(t, m, p)
			digest := sha256.Sum256([]byte(strings.Join(rows, "\n")))
			fmt.Fprintf(&got, "%d %s: %s | %d %x\n", i, m.Hierarchy().Name, tree, len(rows), digest[:8])
		}
	}
	path := filepath.Join("testdata", "treewalk_bits.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing corpus (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d lines, the walk produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("bits drifted:\n  golden: %s\n  got:    %s", wantLines[i], gotLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more drifted lines", bad-5)
	}
}
