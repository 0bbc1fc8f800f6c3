package queryplan

import (
	"fmt"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/vmem"
	"repro/internal/workload"
)

func newPlanner(t *testing.T) *Planner {
	t.Helper()
	pl, err := NewPlanner(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// bestJoin returns the cheapest join plan on the planner's hierarchy.
func bestJoin(t *testing.T, pl *Planner, u, v Relation, outTuples int64) CostedPlan {
	t.Helper()
	plans, err := pl.JoinPlans(u, v, outTuples)
	if err != nil {
		t.Fatal(err)
	}
	return plans[0]
}

func TestJoinPlansEnumerated(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 100000, Width: 16}
	v := Relation{Name: "V", Tuples: 100000, Width: 16}
	plans, err := pl.JoinPlans(u, v, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 4 {
		t.Fatalf("only %d candidate plans", len(plans))
	}
	seen := map[Algorithm]bool{}
	for _, p := range plans {
		seen[p.Algorithm] = true
		if p.TotalNS() <= 0 {
			t.Errorf("%s has non-positive cost", p.Algorithm)
		}
	}
	for _, alg := range []Algorithm{NestedLoopJoin, SortMergeJoin, HashJoin, PartitionedHashJoin} {
		if !seen[alg] {
			t.Errorf("missing candidate %s", alg)
		}
	}
	// Plans sorted cheapest-first.
	for i := 1; i < len(plans); i++ {
		if plans[i].TotalNS() < plans[i-1].TotalNS() {
			t.Error("plans not sorted by cost")
		}
	}
}

func TestMergeJoinOfferedForSortedInputs(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 50000, Width: 8, Sorted: true}
	v := Relation{Name: "V", Tuples: 50000, Width: 8, Sorted: true}
	plans, err := pl.JoinPlans(u, v, 50000)
	if err != nil {
		t.Fatal(err)
	}
	var hasMerge, hasSortMerge bool
	for _, p := range plans {
		hasMerge = hasMerge || p.Algorithm == MergeJoin
		hasSortMerge = hasSortMerge || p.Algorithm == SortMergeJoin
	}
	if !hasMerge {
		t.Error("merge join not offered for sorted inputs")
	}
	if hasSortMerge {
		t.Error("redundant sort-merge join offered for sorted inputs")
	}
}

func TestBestJoinPrefersMergeWhenSorted(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 20, Width: 8, Sorted: true}
	v := Relation{Name: "V", Tuples: 1 << 20, Width: 8, Sorted: true}
	if best := bestJoin(t, pl, u, v, 1<<20); best.Algorithm != MergeJoin {
		t.Errorf("best = %s, want merge join for pre-sorted 8MB inputs", best.Algorithm)
	}
}

func TestBestJoinAvoidsNestedLoopForLargeInputs(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 18, Width: 16}
	v := Relation{Name: "V", Tuples: 1 << 18, Width: 16}
	if best := bestJoin(t, pl, u, v, 1<<18); best.Algorithm == NestedLoopJoin {
		t.Error("nested loop chosen for 256k x 256k join")
	}
}

func TestBestJoinCrossover(t *testing.T) {
	// The headline claim: plain hash join wins while its hash table fits
	// L2; partitioned hash join wins once it does not.
	pl := newPlanner(t)
	small := Relation{Name: "U", Tuples: 1 << 14, Width: 16} // H = 512kB ≤ 4MB
	bestSmall := bestJoin(t, pl, small, Relation{Name: "V", Tuples: 1 << 14, Width: 16}, 1<<14)
	if bestSmall.Algorithm != HashJoin {
		t.Errorf("small join best = %s, want plain hash join", bestSmall.Algorithm)
	}
	big := Relation{Name: "U", Tuples: 1 << 21, Width: 16} // H = 64MB >> 4MB
	bestBig := bestJoin(t, pl, big, Relation{Name: "V", Tuples: 1 << 21, Width: 16}, 1<<21)
	if bestBig.Algorithm != PartitionedHashJoin {
		t.Errorf("big join best = %s, want partitioned hash join", bestBig.Algorithm)
	}
}

func TestAggregatePlans(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 18, Width: 8}
	cands, err := pl.AggregateCandidates(u, 1024)
	if err != nil {
		t.Fatal(err)
	}
	plans := ScoreOn(hardware.Origin2000(), cands)
	if len(plans) != 2 {
		t.Fatalf("got %d aggregate plans", len(plans))
	}
	// Few groups: the aggregate table is cache-resident, hashing must
	// beat sort-everything.
	if plans[0].Algorithm != HashAggregate {
		t.Errorf("best aggregate = %s, want hash (1k groups)", plans[0].Algorithm)
	}
}

func TestDistinctPlans(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 16, Width: 8}
	cands, err := pl.DistinctCandidates(u, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	plans := ScoreOn(hardware.Origin2000(), cands)
	if len(plans) != 2 {
		t.Fatalf("got %d distinct plans", len(plans))
	}
	for _, p := range plans {
		if p.TotalNS() <= 0 {
			t.Errorf("%s non-positive cost", p.Algorithm)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := CostedPlan{Candidate: Candidate{Algorithm: HashJoin, CPUNS: 1e6}, MemNS: 2e6}
	if p.String() == "" || p.TotalNS() != 3e6 {
		t.Error("Plan rendering broken")
	}
}

// executor runs join plans on the simulated engine, so the planner's
// predicted ranking can be verified against measured memory time —
// closing the loop the paper's evaluation closes with hardware
// counters.
type executor struct {
	mem *vmem.Memory
	sim *cachesim.Simulator
}

// newExecutor creates an executor with the given simulated-memory
// budget on the hierarchy.
func newExecutor(h *hardware.Hierarchy, memBytes int64) *executor {
	mem := vmem.New(memBytes)
	sim := cachesim.New(h)
	mem.SetObserver(sim)
	sim.Freeze()
	return &executor{mem: mem, sim: sim}
}

// materializeJoinInputs creates and fills the two physical tables for a
// join according to their logical descriptions (1:1 permutation keys,
// or sorted keys when the relation is declared sorted).
func (e *executor) materializeJoinInputs(u, v Relation, seed uint64) (*engine.Table, *engine.Table) {
	rng := workload.NewRNG(seed)
	ut := engine.NewTable(e.mem, u.Name, u.Tuples, u.Width, 32)
	vt := engine.NewTable(e.mem, v.Name, v.Tuples, v.Width, 32)
	if u.Sorted {
		workload.FillSorted(ut)
	} else {
		workload.FillPermutation(ut, rng)
	}
	if v.Sorted {
		workload.FillSorted(vt)
	} else {
		workload.FillPermutation(vt, rng)
	}
	return ut, vt
}

// runJoin executes the plan's algorithm on the materialized inputs and
// returns (matches, measured memory time in ns).
func (e *executor) runJoin(p CostedPlan, ut, vt *engine.Table, outCap int64) (int64, float64, error) {
	out := engine.NewTable(e.mem, "W", outCap, ut.W(), 32)
	e.sim.Reset()
	e.sim.Thaw()
	defer e.sim.Freeze()
	var matches int64
	switch p.Algorithm {
	case NestedLoopJoin:
		matches = engine.NestedLoopJoin(ut, vt, out)
	case MergeJoin:
		matches = engine.MergeJoin(ut, vt, out)
	case SortMergeJoin:
		engine.QuickSort(ut)
		engine.QuickSort(vt)
		matches = engine.MergeJoin(ut, vt, out)
	case HashJoin:
		matches = engine.HashJoin(e.mem, ut, vt, out)
	case PartitionedHashJoin:
		matches = engine.PartitionedHashJoin(e.mem, ut, vt, out, p.Fanout, engine.HashPartition)
	default:
		return 0, 0, fmt.Errorf("cannot execute %s", p.Algorithm)
	}
	return matches, e.sim.MemoryTimeNS(), nil
}

// TestPlannerRankingMatchesSimulation executes the top candidates of a
// join on the simulated engine and verifies the predicted winner indeed
// measures fastest — the end-to-end claim of the paper.
func TestPlannerRankingMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated execution of multiple plans")
	}
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 1 << 17, Width: 8} // 1MB inputs, H=4MB boundary
	v := Relation{Name: "V", Tuples: 1 << 17, Width: 8}
	plans, err := pl.JoinPlans(u, v, u.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	// Execute every plan except quadratic nested loop.
	type outcome struct {
		alg    Algorithm
		predNS float64
		measNS float64
	}
	var outcomes []outcome
	for _, p := range plans {
		if p.Algorithm == NestedLoopJoin {
			continue
		}
		ex := newExecutor(hardware.Origin2000(), 256<<20)
		ut, vt := ex.materializeJoinInputs(u, v, 11)
		matches, measNS, err := ex.runJoin(p, ut, vt, u.Tuples)
		if err != nil {
			t.Fatal(err)
		}
		if matches != u.Tuples {
			t.Fatalf("%s: %d matches, want %d", p.Algorithm, matches, u.Tuples)
		}
		outcomes = append(outcomes, outcome{p.Algorithm, p.MemNS, measNS})
	}
	// The predicted-cheapest executed plan must also measure cheapest
	// (within 10% slack for near-ties).
	bestPred, bestMeas := outcomes[0], outcomes[0]
	for _, o := range outcomes[1:] {
		if o.predNS < bestPred.predNS {
			bestPred = o
		}
		if o.measNS < bestMeas.measNS {
			bestMeas = o
		}
	}
	if bestPred.alg != bestMeas.alg && bestPred.measNS > bestMeas.measNS*1.10 {
		t.Errorf("predicted winner %s (measured %.1fms) but %s measured %.1fms",
			bestPred.alg, bestPred.measNS/1e6, bestMeas.alg, bestMeas.measNS/1e6)
	}
	for _, o := range outcomes {
		t.Logf("%-22s pred %8.1fms meas %8.1fms", o.alg, o.predNS/1e6, o.measNS/1e6)
	}
}

// TestCandidatesCompiledOnce certifies the compile-once contract: the
// same candidate set re-scored across hardware profiles reuses the
// compiled programs by identity, and scoring on the planner's own
// profile reproduces JoinPlans exactly.
func TestCandidatesCompiledOnce(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 200000, Width: 16}
	v := Relation{Name: "V", Tuples: 100000, Width: 16}
	cands, err := pl.JoinCandidates(u, v, u.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, c := range cands {
		if c.Compiled == nil {
			t.Fatalf("%s: nil compiled program", c.Algorithm)
		}
	}

	onOrigin := ScoreOn(hardware.Origin2000(), cands)
	onX86 := ScoreOn(hardware.ModernX86(), cands)
	for _, plans := range [][]CostedPlan{onOrigin, onX86} {
		for _, p := range plans {
			// Programs are shared by pointer with the candidates: no
			// re-compilation happened.
			found := false
			for _, c := range cands {
				if c.Compiled == p.Compiled {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: plan's program not shared with its candidate", p.Algorithm)
			}
		}
	}

	direct, err := pl.JoinPlans(u, v, u.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(onOrigin) {
		t.Fatalf("JoinPlans %d plans, ScoreOn %d", len(direct), len(onOrigin))
	}
	for i := range direct {
		if direct[i].Algorithm != onOrigin[i].Algorithm || direct[i].MemNS != onOrigin[i].MemNS {
			t.Errorf("plan %d: JoinPlans %v/%g != ScoreOn %v/%g",
				i, direct[i].Algorithm, direct[i].MemNS, onOrigin[i].Algorithm, onOrigin[i].MemNS)
		}
	}

	// Different hardware may rank differently, but each plan's memory
	// time must be profile-specific (not stale from the first scoring).
	same := true
	for i := range onOrigin {
		if onOrigin[i].MemNS != onX86[i].MemNS {
			same = false
		}
	}
	if same {
		t.Error("scores identical across Origin2000 and ModernX86 — rescoring looks stale")
	}
}

// TestAggregateAndDistinctCandidates covers the other two enumerators'
// candidate paths.
func TestAggregateAndDistinctCandidates(t *testing.T) {
	pl := newPlanner(t)
	u := Relation{Name: "U", Tuples: 100000, Width: 16}
	ac, err := pl.AggregateCandidates(u, 512)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := pl.DistinctCandidates(u, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cands := range [][]Candidate{ac, dc} {
		if len(cands) != 2 {
			t.Fatalf("got %d candidates, want 2", len(cands))
		}
		plans := ScoreOn(hardware.SmallTest(), cands)
		if len(plans) != 2 || plans[0].TotalNS() > plans[1].TotalNS() {
			t.Errorf("ScoreOn did not sort cheapest first: %v", plans)
		}
	}
}
