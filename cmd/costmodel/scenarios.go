package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/pkg/costmodel"
	"repro/pkg/costmodel/scenario"
	"repro/pkg/costmodel/server"
)

// runScenarios lists the scenario catalog or prices one scenario's
// physical plans on a hardware profile:
//
//	costmodel scenarios                                   # list the catalog
//	costmodel scenarios -scenario join3-chain-q3          # rank plans on origin2000
//	costmodel scenarios -scenario join2-large -profile modern-x86 -top 10 -json
//	costmodel scenarios -scenario join8-chain -search dp -topk 5
//	costmodel scenarios -scenario join4-chain -search exhaustive  # the small-query oracle
func runScenarios(args []string) {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	var (
		name    = fs.String("scenario", "", "scenario to price (empty: list the catalog)")
		profile = fs.String("profile", "origin2000", "hardware profile: "+profileNames())
		top     = fs.Int("top", 5, "ranked plans to print (negative: all)")
		asJSON  = fs.Bool("json", false, "emit the ranking as JSON")
		search  = fs.String("search", "dp", "plan-space search: dp (memoized DP over connected subgraphs, bushy trees) or exhaustive (left-deep small-query oracle)")
		topk    = fs.Int("topk", 0, "subplans the DP search keeps per memo bucket (0: engine default, negative: no pruning)")
		ldeep   = fs.Bool("leftdeep", false, "restrict the DP search to left-deep join trees (bushy off)")
		par     = fs.Int("parallelism", 0, "DP memo workers per subset-size stratum (0: one per CPU, 1: single-threaded; the ranking is identical at every setting)")
	)
	fs.Parse(args)

	if *name == "" {
		fmt.Printf("%-22s %s\n", "SCENARIO", "DESCRIPTION")
		for _, sc := range scenario.Catalog() {
			fmt.Printf("%-22s %s\n", sc.Name, sc.Description)
		}
		return
	}

	sc, ok := scenario.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q (have: %v)\n", *name, scenario.Names())
		os.Exit(2)
	}
	h, err := costmodel.Profile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	so := scenario.SearchOptions{
		Strategy:     scenario.SearchStrategy(*search),
		TopK:         *topk,
		LeftDeepOnly: *ldeep,
		Parallelism:  *par,
	}
	plans, err := scenario.PricePlanTreesSearch(h, sc.Query, so)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n := *top
	if n < 0 || n > len(plans) {
		n = len(plans)
	}

	if *asJSON {
		// Same wire schema as POST /v1/plan's ranking.
		out := struct {
			Scenario string              `json:"scenario"`
			Profile  string              `json:"profile"`
			Plans    int                 `json:"plans"`
			Ranking  []server.RankedPlan `json:"ranking"`
		}{Scenario: sc.Name, Profile: *profile, Plans: len(plans)}
		for _, pp := range plans[:n] {
			p := pp.Plan
			out.Ranking = append(out.Ranking, server.RankedPlan{
				Plan: string(p.Algorithm), MemoryNS: p.MemNS, CPUNS: p.CPUNS, TotalNS: p.TotalNS(),
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scenario: %s (%s)\nprofile:  %s\nplans:    %d\n\n", sc.Name, sc.Description, *profile, len(plans))
	for i, pp := range plans[:n] {
		p := pp.Plan
		fmt.Printf("#%-3d T=%10.3fms (mem %10.3fms, cpu %10.3fms)  %s\n",
			i+1, p.TotalNS()/1e6, p.MemNS/1e6, p.CPUNS/1e6, p.Algorithm)
	}
}
