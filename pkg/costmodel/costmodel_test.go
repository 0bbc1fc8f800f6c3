package costmodel_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/pkg/costmodel"
)

// TestFacadeParity pins the facade to the internal implementation: a
// pattern evaluated through pkg/costmodel must predict exactly what the
// internal packages predict.
func TestFacadeParity(t *testing.T) {
	u := costmodel.NewRegion("U", 1<<20, 16)
	h := costmodel.NewRegion("H", 1<<21, 16)
	w := costmodel.NewRegion("W", 1<<20, 16)
	p, err := costmodel.ParsePattern(
		"s_trav(U) (.) r_acc(1048576, H) (.) s_trav(W)",
		map[string]*costmodel.Region{"U": u, "H": h, "W": w})
	if err != nil {
		t.Fatal(err)
	}

	pub, err := costmodel.NewModel(costmodel.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	internal, err := cost.New(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}

	got, err := pub.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := internal.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemoryTimeNS() != want.MemoryTimeNS() {
		t.Fatalf("facade T_mem = %g, internal = %g", got.MemoryTimeNS(), want.MemoryTimeNS())
	}
	for i := range got.PerLevel {
		if got.PerLevel[i].Misses != want.PerLevel[i].Misses {
			t.Errorf("level %s: facade misses %+v, internal %+v",
				got.PerLevel[i].Level.Name, got.PerLevel[i].Misses, want.PerLevel[i].Misses)
		}
	}
}

func TestRegistryBuiltins(t *testing.T) {
	reg := costmodel.NewRegistry()
	for _, name := range []string{"origin2000", "modern-x86", "small-test"} {
		h, err := reg.Profile(name)
		if err != nil {
			t.Fatalf("built-in profile %q: %v", name, err)
		}
		if err := h.Validate(); err != nil {
			t.Errorf("built-in profile %q does not validate: %v", name, err)
		}
	}
	if _, err := reg.Profile("no-such-machine"); err == nil {
		t.Error("unknown profile: want error, got nil")
	}
}

func TestRegistryProfileIsolation(t *testing.T) {
	reg := costmodel.NewRegistry()
	a, _ := reg.Profile("origin2000")
	a.Levels[0].Capacity = 1 // vandalize the returned copy
	b, _ := reg.Profile("origin2000")
	if b.Levels[0].Capacity == 1 {
		t.Fatal("Profile returned a shared hierarchy; mutations leak between calls")
	}
}

func TestRegistryRegister(t *testing.T) {
	reg := costmodel.NewRegistry()
	base := reg.Version()

	custom := costmodel.SmallTest()
	custom.Name = "my-box"
	if err := reg.RegisterHierarchy("my-box", custom); err != nil {
		t.Fatal(err)
	}
	if reg.Version() == base {
		t.Error("Register did not bump the registry version")
	}
	got, err := reg.Profile("my-box")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "my-box" {
		t.Errorf("got profile %q, want my-box", got.Name)
	}

	// The registration froze a copy: mutating the original afterwards
	// must not affect lookups.
	custom.Levels[0].Capacity = 1
	got, _ = reg.Profile("my-box")
	if got.Levels[0].Capacity == 1 {
		t.Error("RegisterHierarchy did not copy the hierarchy")
	}

	names := reg.Names()
	if !sorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "my-box" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() missing my-box: %v", names)
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	reg := costmodel.NewRegistry()
	if err := reg.Register("", costmodel.Origin2000); err == nil {
		t.Error("empty name: want error")
	}
	if err := reg.Register("x", nil); err == nil {
		t.Error("nil constructor: want error")
	}
	bad := &costmodel.Hierarchy{Name: "bad"} // no levels
	if err := reg.RegisterHierarchy("bad", bad); err == nil {
		t.Error("invalid hierarchy: want error")
	}
	if err := reg.RegisterHierarchy("nil", nil); err == nil {
		t.Error("nil hierarchy: want error")
	}
	if _, err := reg.Profile("bad"); err == nil {
		t.Error("rejected profile must not be registered")
	}
}

// TestPlannerFacade exercises the planner entry points end to end: the
// ranking must be sound (sorted by total time) and the crossover from
// the paper must show up (partitioned hash join beats nested loop for
// large inputs).
func TestPlannerFacade(t *testing.T) {
	pl, err := costmodel.NewPlanner(costmodel.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	u := costmodel.Relation{Name: "U", Tuples: 1 << 20, Width: 16}
	v := costmodel.Relation{Name: "V", Tuples: 1 << 20, Width: 16}
	plans, err := pl.JoinPlans(u, v, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("want ≥3 candidate plans, got %d", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].TotalNS() < plans[i-1].TotalNS() {
			t.Errorf("plans not sorted: %v before %v", plans[i-1], plans[i])
		}
	}
	best := plans[0]
	if best.Algorithm == costmodel.NestedLoopJoin {
		t.Errorf("nested loop chosen for 1M⋈1M: %v", best)
	}
	if math.IsNaN(best.TotalNS()) || best.TotalNS() <= 0 {
		t.Errorf("best plan has nonsense cost: %v", best)
	}
}

// TestExplainMatchesEvaluate checks the facade's Explain totals equal
// Evaluate's prediction, as documented.
func TestExplainMatchesEvaluate(t *testing.T) {
	model := costmodel.MustNewModel(costmodel.ModernX86())
	u := costmodel.NewRegion("U", 1<<18, 32)
	p := costmodel.Seq{
		costmodel.STrav{R: u},
		costmodel.RAcc{R: u, Count: 1 << 16},
	}
	res, err := model.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := model.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Total().TimeNS, res.MemoryTimeNS(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("Explain total %g != Evaluate %g", got, want)
	}
	var sb strings.Builder
	ex.Render(&sb)
	if !strings.Contains(sb.String(), "r_acc") {
		t.Errorf("rendered explanation missing pattern nodes:\n%s", sb.String())
	}
}

func sorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestCompiledPatternMatchesModel: the public Compile path must agree
// with Model.Evaluate (which compiles internally) and be reusable
// across hierarchies.
func TestCompiledPatternMatchesModel(t *testing.T) {
	u := costmodel.NewRegion("U", 1<<18, 16)
	h := costmodel.HashRegionFor("H", u.N)
	p := costmodel.Conc{
		costmodel.STrav{R: u},
		costmodel.RAcc{R: h, Count: u.N},
	}
	prog, err := costmodel.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() *costmodel.Hierarchy{costmodel.Origin2000, costmodel.ModernX86} {
		hier := mk()
		model := costmodel.MustNewModel(hier)
		want, err := model.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		misses := prog.Evaluate(hier, nil)
		if len(misses) != len(want.PerLevel) {
			t.Fatalf("%s: %d levels, want %d", hier.Name, len(misses), len(want.PerLevel))
		}
		for i := range misses {
			if misses[i] != want.PerLevel[i].Misses {
				t.Errorf("%s level %d: compiled %+v != model %+v",
					hier.Name, i, misses[i], want.PerLevel[i].Misses)
			}
		}
		if got, want := prog.MemoryTimeNS(hier), want.MemoryTimeNS(); got != want {
			t.Errorf("%s: MemoryTimeNS compiled %g != model %g", hier.Name, got, want)
		}
	}
}

// TestCanonicalPattern: the canonical form is stable across
// cost-equivalent spellings and available without full compilation.
func TestCanonicalPattern(t *testing.T) {
	u := costmodel.NewRegion("U", 1000, 16)
	v := costmodel.NewRegion("V", 500, 8)
	a := costmodel.Conc{costmodel.STrav{R: u}, costmodel.RTrav{R: v}}
	b := costmodel.Conc{costmodel.RTrav{R: v}, costmodel.STrav{R: u}}
	ka, err := costmodel.CanonicalPattern(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := costmodel.CanonicalPattern(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("canonical forms differ:\n  %q\n  %q", ka, kb)
	}
	prog, err := costmodel.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Canonical() != ka {
		t.Errorf("Compile().Canonical() = %q, CanonicalPattern = %q", prog.Canonical(), ka)
	}
}

// TestScorePlansAcrossProfiles: candidates enumerate+compile once and
// re-score on any registered profile.
func TestScorePlansAcrossProfiles(t *testing.T) {
	pl, err := costmodel.NewPlanner(costmodel.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	u := costmodel.Relation{Name: "U", Tuples: 200000, Width: 16}
	v := costmodel.Relation{Name: "V", Tuples: 100000, Width: 16}
	cands, err := pl.JoinCandidates(u, v, u.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	for _, hier := range []*costmodel.Hierarchy{costmodel.Origin2000(), costmodel.SmallTest()} {
		plans := costmodel.ScorePlans(hier, cands)
		if len(plans) != len(cands) {
			t.Fatalf("%s: %d plans from %d candidates", hier.Name, len(plans), len(cands))
		}
		for i := 1; i < len(plans); i++ {
			if plans[i-1].TotalNS() > plans[i].TotalNS() {
				t.Errorf("%s: plans not sorted cheapest first", hier.Name)
			}
		}
	}
}
