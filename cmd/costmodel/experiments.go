package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/pkg/costmodel"
)

// runExperiments regenerates the paper's tables and figures:
//
//	costmodel experiments -exp all                  # every experiment, text output
//	costmodel experiments -exp fig7c                # one experiment
//	costmodel experiments -exp fig7d -csv           # CSV output
//	costmodel experiments -exp fig7a -max 33554432  # sweep relations up to 32 MB
//	costmodel experiments -list                     # list experiment IDs
//	costmodel experiments -profile modern-x86       # different hardware profile
func runExperiments(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		exp     = fs.String("exp", "all", "experiment ID or 'all'")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		maxSize = fs.Int64("max", 16<<20, "largest relation size in bytes")
		seed    = fs.Uint64("seed", 42, "workload seed")
		quick   = fs.Bool("quick", false, "reduced point sets")
		profile = fs.String("profile", "origin2000", "hardware profile: "+profileNames())
	)
	fs.Parse(args)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	h, err := costmodel.Profile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := experiments.Config{
		Hier:    h,
		MaxSize: *maxSize,
		Seed:    *seed,
		Quick:   *quick,
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	for i, id := range ids {
		gen, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		rep := gen(cfg)
		if *csv {
			rep.CSV(os.Stdout)
		} else {
			if i > 0 {
				fmt.Println()
			}
			rep.Render(os.Stdout)
		}
	}
}
