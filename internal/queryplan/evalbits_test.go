package queryplan_test

// The evaluator bits golden: the exact IEEE-754 bits of every per-level
// miss count the compiled-IR evaluator produces for every ranked plan
// of every catalog scenario on the golden profiles, plus the
// BenchmarkEvaluate patterns. TestGolden tolerates 1e-9 relative drift
// and records only each winner; this file pins every ranked plan to the
// last bit, so an evaluator rewrite that reorders a float sum or drops
// a different resident entry fails here even when the rankings hold.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/queryplan -run TestEvalBits -update

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/costir"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/queryplan"
	"repro/internal/region"
)

var evalBitsPath = filepath.Join("testdata", "evalbits.txt")

// evalBitsLine renders one program's per-level misses on h as
// "<label>: <seq bits>/<rnd bits> ..." with the bits in hex.
func evalBitsLine(label string, prog *costir.Program, h *hardware.Hierarchy) string {
	var b strings.Builder
	b.WriteString(label)
	b.WriteByte(':')
	for _, m := range prog.Evaluate(h, nil) {
		fmt.Fprintf(&b, " %016x/%016x", math.Float64bits(m.Seq), math.Float64bits(m.Rnd))
	}
	return b.String()
}

// evalBitsPatterns are BenchmarkEvaluate's patterns (bench_test.go),
// then the same shapes over sizes that are not powers of two, whose
// resident fractions and byte sums round, so a reordered sum shows.
func evalBitsPatterns() []struct {
	name string
	p    pattern.Pattern
} {
	type named = struct {
		name string
		p    pattern.Pattern
	}
	var out []named
	for _, g := range []struct {
		suffix  string
		u, v, w [2]int64 // items, width
		parts   int64
	}{
		{"", [2]int64{1 << 20, 16}, [2]int64{1 << 20, 16}, [2]int64{1 << 20, 16}, 256},
		{"-odd", [2]int64{1_000_003, 24}, [2]int64{600_001, 32}, [2]int64{1_000_003, 48}, 200},
	} {
		u := region.New("U", g.u[0], g.u[1])
		v := region.New("V", g.v[0], g.v[1])
		w := region.New("W", g.w[0], g.w[1])
		hr := engine.HashRegionFor("H", v.N)
		out = append(out,
			named{"hashjoin" + g.suffix, engine.HashJoinPattern(u, v, hr, w)},
			named{"quicksort" + g.suffix, engine.QuickSortPattern(u, 32<<10)},
			named{fmt.Sprintf("partitioned%d%s", g.parts, g.suffix), engine.PartitionedHashJoinPattern(u, v, w, g.parts)})
	}
	return out
}

// rankMemo shares Rank's answers between TestGolden and TestEvalBits,
// which price the same catalog × profile grid: whichever runs first
// pays for the searches.
var rankMemo sync.Map // "scenario/profile" -> *rankEntry

type rankEntry struct {
	once  sync.Once
	plans []queryplan.PricedPlan
	err   error
}

// rankScenario returns Rank(profile, sc) with default search options,
// memoized for the test binary's lifetime.
func rankScenario(t *testing.T, profile string, sc queryplan.Scenario) []queryplan.PricedPlan {
	t.Helper()
	v, _ := rankMemo.LoadOrStore(sc.Name+"/"+profile, &rankEntry{})
	e := v.(*rankEntry)
	e.once.Do(func() {
		e.plans, e.err = queryplan.Rank(hardware.Profiles()[profile](), sc.Query, queryplan.SearchOptions{})
	})
	if e.err != nil {
		t.Fatalf("Rank(%s): %v", sc.Name, e.err)
	}
	return e.plans
}

// computeEvalBits renders the whole corpus, one line per program and
// profile, in profile × catalog × rank order. The scenarios are ranked
// in parallel subtests.
func computeEvalBits(t *testing.T) []byte {
	t.Helper()
	catalog := queryplan.Catalog()
	blocks := make([]string, len(goldenProfiles)*len(catalog))
	t.Run("rank", func(t *testing.T) {
		for pi, profile := range goldenProfiles {
			h := hardware.Profiles()[profile]()
			for si, sc := range catalog {
				t.Run(sc.Name+"/"+profile, func(t *testing.T) {
					t.Parallel()
					var b strings.Builder
					for i, p := range rankScenario(t, profile, sc) {
						label := fmt.Sprintf("%s %s %d %s", sc.Name, profile, i, p.Plan.Algorithm)
						fmt.Fprintln(&b, evalBitsLine(label, p.Plan.Compiled, h))
					}
					blocks[pi*len(catalog)+si] = b.String()
				})
			}
		}
	})
	var out bytes.Buffer
	for pi, profile := range goldenProfiles {
		h := hardware.Profiles()[profile]()
		for _, blk := range blocks[pi*len(catalog) : (pi+1)*len(catalog)] {
			out.WriteString(blk)
		}
		for _, tc := range evalBitsPatterns() {
			prog, err := costir.Compile(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&out, evalBitsLine("evaluate/"+tc.name+" "+profile, prog, h))
		}
	}
	return out.Bytes()
}

// TestEvalBits compares the evaluator's output bits against the
// committed corpus line by line.
func TestEvalBits(t *testing.T) {
	got := computeEvalBits(t)
	if *update {
		if err := os.WriteFile(evalBitsPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(evalBitsPath)
	if err != nil {
		t.Fatalf("missing evaluator bits corpus (run with -update to create): %v", err)
	}
	gotLines := strings.Split(strings.TrimSpace(string(got)), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("corpus has %d programs, evaluation produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("bits drifted:\n  golden: %s\n  got:    %s", wantLines[i], gotLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more drifted programs", bad-10)
	}
}
