package queryplan_test

// The golden-corpus regression harness: every catalog scenario is
// planned on every golden profile, and the winning plan's identity,
// canonical pattern, per-level misses and costs — plus the top of the
// ranking — are locked in testdata/golden/*.json. Any drift in the
// cost formulas, the canonicalizer, the enumerator or the planner
// surfaces as a diff here before it silently changes production plan
// choices.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/queryplan -run TestGolden -update
//
// and review the diff like any other code change (CI fails if the
// committed corpus does not match a fresh regeneration).

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/internal/queryplan"
)

var update = flag.Bool("update", false, "rewrite the golden corpus instead of diffing against it")

// goldenProfiles are the hardware profiles the corpus locks. Adding a
// profile here and running -update extends the corpus.
var goldenProfiles = []string{"origin2000", "modern-x86"}

// rankingDepth is how many plans (from cheapest) each golden file
// records beyond the winner's full detail.
const rankingDepth = 5

type goldenLevel struct {
	Level     string  `json:"level"`
	SeqMisses float64 `json:"seq_misses"`
	RndMisses float64 `json:"rnd_misses"`
}

type goldenWinner struct {
	Plan      string        `json:"plan"`
	Canonical string        `json:"canonical"`
	MemoryNS  float64       `json:"memory_ns"`
	CPUNS     float64       `json:"cpu_ns"`
	TotalNS   float64       `json:"total_ns"`
	Levels    []goldenLevel `json:"levels"`
}

type goldenRank struct {
	Plan    string  `json:"plan"`
	TotalNS float64 `json:"total_ns"`
}

type goldenFile struct {
	Scenario string       `json:"scenario"`
	Profile  string       `json:"profile"`
	Plans    int          `json:"plans"`
	Winner   goldenWinner `json:"winner"`
	Ranking  []goldenRank `json:"ranking"`
}

func computeGolden(t *testing.T, profile string, sc queryplan.Scenario) goldenFile {
	t.Helper()
	h := hardware.Profiles()[profile]()
	plans := rankScenario(t, profile, sc)
	if len(plans) == 0 {
		t.Fatalf("Rank(%s): no plans", sc.Name)
	}
	best := plans[0].Plan
	g := goldenFile{Scenario: sc.Name, Profile: profile, Plans: len(plans)}
	g.Winner = goldenWinner{
		Plan:      string(best.Algorithm),
		Canonical: best.Compiled.Canonical(),
		MemoryNS:  best.MemNS,
		CPUNS:     best.CPUNS,
		TotalNS:   best.TotalNS(),
	}
	res := cost.MustNew(h).EvaluateCompiled(best.Compiled)
	for _, lr := range res.PerLevel {
		g.Winner.Levels = append(g.Winner.Levels, goldenLevel{
			Level:     lr.Level.Name,
			SeqMisses: lr.Misses.Seq,
			RndMisses: lr.Misses.Rnd,
		})
	}
	for i, p := range plans {
		if i >= rankingDepth {
			break
		}
		g.Ranking = append(g.Ranking, goldenRank{Plan: string(p.Plan.Algorithm), TotalNS: p.Plan.TotalNS()})
	}
	return g
}

func goldenPath(sc, profile string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s.%s.json", sc, profile))
}

// TestGolden locks every catalog scenario × profile against the
// committed corpus: the winning plan must match exactly, every cost
// and miss count within 1e-9 relative. The corpus directory must also
// contain exactly the catalog × profile set — an orphaned file left
// behind by a removed or renamed scenario fails the test (and is
// deleted by -update).
func TestGolden(t *testing.T) {
	if len(queryplan.Catalog()) < 16 {
		t.Fatalf("catalog has %d scenarios, want ≥ 16", len(queryplan.Catalog()))
	}
	t.Run("corpus-files", func(t *testing.T) {
		expected := map[string]bool{}
		for _, profile := range goldenProfiles {
			for _, sc := range queryplan.Catalog() {
				expected[fmt.Sprintf("%s.%s.json", sc.Name, profile)] = true
			}
		}
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatalf("reading the golden corpus dir: %v", err)
		}
		for _, e := range entries {
			if expected[e.Name()] {
				continue
			}
			if *update {
				if err := os.Remove(filepath.Join("testdata", "golden", e.Name())); err != nil {
					t.Fatal(err)
				}
				continue
			}
			t.Errorf("orphaned golden file %s (no matching catalog scenario × profile; -update removes it)", e.Name())
		}
	})
	for _, profile := range goldenProfiles {
		for _, sc := range queryplan.Catalog() {
			t.Run(sc.Name+"/"+profile, func(t *testing.T) {
				t.Parallel()
				got := computeGolden(t, profile, sc)
				path := goldenPath(sc.Name, profile)
				if *update {
					buf, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				var want goldenFile
				if err := json.Unmarshal(buf, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				diffGolden(t, want, got)
			})
		}
	}
}

func diffGolden(t *testing.T, want, got goldenFile) {
	t.Helper()
	if got.Plans != want.Plans {
		t.Errorf("plan count drifted: golden %d, got %d", want.Plans, got.Plans)
	}
	if got.Winner.Plan != want.Winner.Plan {
		t.Errorf("plan choice drifted:\n  golden: %s\n  got:    %s", want.Winner.Plan, got.Winner.Plan)
	}
	if got.Winner.Canonical != want.Winner.Canonical {
		t.Errorf("winner's canonical pattern drifted (golden %d bytes, got %d bytes)",
			len(want.Winner.Canonical), len(got.Winner.Canonical))
	}
	checkNS := func(what string, want, got float64) {
		if !approxEqual(want, got) {
			t.Errorf("%s drifted: golden %.6g, got %.6g (rel %.3g)", what, want, got, relDiff(want, got))
		}
	}
	checkNS("winner memory_ns", want.Winner.MemoryNS, got.Winner.MemoryNS)
	checkNS("winner cpu_ns", want.Winner.CPUNS, got.Winner.CPUNS)
	checkNS("winner total_ns", want.Winner.TotalNS, got.Winner.TotalNS)
	if len(got.Winner.Levels) != len(want.Winner.Levels) {
		t.Fatalf("level count drifted: golden %d, got %d", len(want.Winner.Levels), len(got.Winner.Levels))
	}
	for i, wl := range want.Winner.Levels {
		gl := got.Winner.Levels[i]
		if gl.Level != wl.Level {
			t.Errorf("level %d name drifted: golden %s, got %s", i, wl.Level, gl.Level)
		}
		checkNS(fmt.Sprintf("level %s seq_misses", wl.Level), wl.SeqMisses, gl.SeqMisses)
		checkNS(fmt.Sprintf("level %s rnd_misses", wl.Level), wl.RndMisses, gl.RndMisses)
	}
	if len(got.Ranking) != len(want.Ranking) {
		t.Fatalf("ranking depth drifted: golden %d, got %d", len(want.Ranking), len(got.Ranking))
	}
	for i, wr := range want.Ranking {
		gr := got.Ranking[i]
		if gr.Plan != wr.Plan {
			t.Errorf("ranking[%d] drifted:\n  golden: %s\n  got:    %s", i, wr.Plan, gr.Plan)
		}
		checkNS(fmt.Sprintf("ranking[%d] total_ns", i), wr.TotalNS, gr.TotalNS)
	}
}

// approxEqual compares within 1e-9 relative tolerance: golden files
// must survive harmless float-formatting and platform rounding, while
// any real formula change (always ≫ 1e-9) still fails.
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	return relDiff(a, b) <= 1e-9
}

func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
