package queryplan_test

// The race suite drives the parallel DP memo through its most
// contended shapes — the largest catalog scenarios, a worker pool per
// stratum, several whole searches in flight at once sharing the
// process-global step cache — so `go test -race ./...` (the CI race
// matrix job) observes the memo's synchronization under real load, not
// just the single-threaded paths the rest of the suite mostly takes.

import (
	"sync"
	"testing"

	"repro/internal/hardware"
	"repro/internal/queryplan"
)

// raceScenarios are the catalog's largest join graphs — the deepest
// strata, the widest subsets-per-stratum fan-out.
var raceScenarios = []string{"join7-star", "join8-chain", "join10-star", "join12-chain"}

func TestDPParallelSearchRace(t *testing.T) {
	byName := make(map[string]queryplan.Scenario)
	for _, sc := range queryplan.Catalog() {
		byName[sc.Name] = sc
	}
	h := hardware.Origin2000()
	var wg sync.WaitGroup
	for _, name := range raceScenarios {
		sc, ok := byName[name]
		if !ok {
			t.Fatalf("scenario %q missing from the catalog", name)
		}
		// Two concurrent searches per scenario: workers of independent
		// searches race on the shared step cache, workers within one
		// search race on its memo and bounder tables.
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(sc queryplan.Scenario) {
				defer wg.Done()
				plans, err := queryplan.Rank(h, sc.Query, queryplan.SearchOptions{Parallelism: 8})
				if err != nil {
					t.Errorf("%s: %v", sc.Name, err)
					return
				}
				if len(plans) == 0 {
					t.Errorf("%s: no plans", sc.Name)
				}
			}(sc)
		}
	}
	wg.Wait()
}
