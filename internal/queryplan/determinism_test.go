package queryplan_test

// The determinism suite locks the tentpole guarantee of the parallel DP
// memo (docs/optimizer.md): the search result is a pure function of
// (query, options, hierarchy) — bit-identical winner signature, top-k
// ranking and costs at every Parallelism setting and on every repeat,
// regardless of goroutine scheduling, work-stealing order, or what the
// process-global step cache happens to contain. Costs are compared by
// their exact float64 bit patterns, not a tolerance: the memo's
// tie-breaking is defined to be schedule-independent, so even 1-ulp
// drift is a bug.

import (
	"math"
	"testing"

	"repro/internal/hardware"
	"repro/internal/queryplan"
)

// determinismReps is how many times each (scenario, parallelism) pair
// is re-run; the race build (see determinism_race_test.go) and -short
// dial it down because every rep still re-runs phase 2 in full.
var determinismReps = 50

// planTrace is the comparable image of one search result: every ranked
// plan's signature plus the raw bits of its cost split.
type planTrace struct {
	sig     string
	memBits uint64
	cpuBits uint64
}

func traceOf(plans []queryplan.PricedPlan) []planTrace {
	tr := make([]planTrace, len(plans))
	for i, pp := range plans {
		p := pp.Plan
		tr[i] = planTrace{
			sig:     string(p.Algorithm),
			memBits: math.Float64bits(p.MemNS),
			cpuBits: math.Float64bits(p.CPUNS),
		}
	}
	return tr
}

func TestDPDeterministicAcrossParallelismAndRepeats(t *testing.T) {
	reps := determinismReps
	if testing.Short() {
		reps = 3
	}
	h := hardware.Origin2000()
	for _, sc := range queryplan.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			baseline, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(baseline) == 0 {
				t.Fatal("no plans")
			}
			want := traceOf(baseline)
			for _, par := range []int{1, 2, 8} {
				for rep := 0; rep < reps; rep++ {
					plans, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("par=%d rep=%d: %v", par, rep, err)
					}
					got := traceOf(plans)
					if len(got) != len(want) {
						t.Fatalf("par=%d rep=%d: %d plans, baseline %d", par, rep, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("par=%d rep=%d: ranking[%d] diverged from the par=1 baseline:\n  got:      %s (mem %016x cpu %016x)\n  baseline: %s (mem %016x cpu %016x)",
								par, rep, i,
								got[i].sig, got[i].memBits, got[i].cpuBits,
								want[i].sig, want[i].memBits, want[i].cpuBits)
						}
					}
				}
			}
		})
	}
}
