package scenario_test

import (
	"fmt"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
)

// ExamplePricePlanTreesSearch prices a two-table equi-join where both
// inputs are already key-ordered: the merge join needs no sort, so it
// wins on every sane hierarchy.
func ExamplePricePlanTreesSearch() {
	h, err := costmodel.Profile("origin2000")
	if err != nil {
		panic(err)
	}
	q := scenario.Query{
		Relations: []scenario.Relation{
			{Name: "U", Tuples: 200_000, Width: 16, Sorted: true},
			{Name: "V", Tuples: 100_000, Width: 16, Sorted: true},
		},
		Joins: []scenario.JoinEdge{{Left: 0, Right: 1, Selectivity: 1.0 / 200_000}},
	}
	plans, err := scenario.PricePlanTreesSearch(h, q, scenario.SearchOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(plans[0].Plan.Algorithm)
	// Output:
	// (U mj V)
}

// ExampleByName looks up a catalog scenario and shows its shape.
func ExampleByName() {
	sc, ok := scenario.ByName("join3-chain-q3")
	if !ok {
		panic("catalog entry vanished")
	}
	fmt.Println(len(sc.Query.Relations), "relations,", len(sc.Query.Joins), "joins")
	// Output:
	// 3 relations, 2 joins
}
