package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/pkg/costmodel/validate"
)

// validateMinSpeedup is the committed wall-clock advantage the
// analytical backend must keep over the trace oracle on the validation
// grid; -check fails below it.
const validateMinSpeedup = 10

// runValidate sweeps every operator pattern across data sizes, measures
// each grid point with the selected backend, and reports the relative
// error between the model's predicted memory time and the measurement:
//
//	costmodel validate                      # trace sweep on origin2000
//	costmodel validate -quick -json         # smoke sweep + BENCH_validate.json
//	costmodel validate -backend analytical  # stack-distance backend, ~100× faster
//	costmodel validate -crosscheck -check   # both backends, gate on disagreement
//	costmodel validate -profile modern-x86 -ops scan,hash-join
//	costmodel validate -cpuprofile v.pprof -memprofile m.pprof
//
// The -json trajectory file records per-operator and overall mean
// relative error (schema in docs/validation.md), so successive runs can
// be compared over the repository's history. -snapshot compares the
// fresh report's deterministic numbers against a committed trajectory
// file and fails on drift, like the query-plan golden corpus.
func runValidate(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	var (
		profile  = fs.String("profile", "origin2000", "hardware profile to validate: "+profileNames())
		backend  = fs.String("backend", string(validate.BackendTrace), "measurement backend: trace (simulator oracle) or analytical (stack-distance model)")
		cross    = fs.Bool("crosscheck", false, "run both backends and attach per-operator disagreement + speedup")
		check    = fs.Bool("check", false, "with -crosscheck: exit non-zero if any operator exceeds its tolerance or the speedup falls below 10x")
		quick    = fs.Bool("quick", false, "small sizes for a fast smoke run")
		ops      = fs.String("ops", "", "comma-separated operator subset (default all: "+strings.Join(validate.Operators(), ",")+")")
		workers  = fs.Int("workers", 0, "max concurrently simulated grid points (0 = GOMAXPROCS)")
		seed     = fs.Uint64("seed", 0, "workload seed (0 = default)")
		asJS     = fs.Bool("json", false, "also write the JSON trajectory file (-out)")
		out      = fs.String("out", "BENCH_validate.json", "path of the JSON trajectory file written with -json")
		snapshot = fs.String("snapshot", "", "committed trajectory file to compare deterministic numbers against (exit non-zero on drift)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a post-sweep heap profile to this file")
	)
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}

	opts := validate.Options{
		Profile:    *profile,
		Quick:      *quick,
		Workers:    *workers,
		Seed:       *seed,
		Backend:    validate.Backend(*backend),
		CrossCheck: *cross,
	}
	if *ops != "" {
		opts.Operators = strings.Split(*ops, ",")
	}
	rep, err := validate.Run(ctx, opts)
	if *cpuProf != "" {
		// Stop before reporting so the profile covers the sweep, not the
		// JSON marshalling below (and is flushed even on a failed run).
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, merr := os.Create(*memProf)
		if merr != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", merr)
			os.Exit(1)
		}
		runtime.GC() // capture live heap after the sweep, not transient garbage
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	rep.Report().Render(os.Stdout)
	fmt.Printf("\nmean relative error: %.4f (%d operators, %s backend)\n",
		rep.MeanRelError, len(rep.Operators), rep.Backend)
	if cc := rep.CrossCheck; cc != nil {
		fmt.Printf("cross-check: analytical %.1fms vs trace %.1fms (%.1fx speedup)\n",
			float64(cc.AnalyticalWallNS)/1e6, float64(cc.TraceWallNS)/1e6, cc.Speedup)
		for _, occ := range cc.Operators {
			status := "ok"
			if !occ.Pass {
				status = "FAIL"
			}
			fmt.Printf("  %-12s disagreement mean %.4f max %.4f (tolerance %.2f) %s\n",
				occ.Operator, occ.MeanDisagreement, occ.MaxDisagreement, occ.Tolerance, status)
		}
	}

	if *asJS {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *snapshot != "" {
		raw, err := os.ReadFile(*snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
			os.Exit(1)
		}
		var old validate.Report
		if err := json.Unmarshal(raw, &old); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot %s: %v\n", *snapshot, err)
			os.Exit(1)
		}
		if err := rep.SameNumbers(&old); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot drift vs %s: %v\n", *snapshot, err)
			fmt.Fprintln(os.Stderr, "re-generate with: go run ./cmd/costmodel validate -backend analytical -crosscheck -json -out "+*snapshot)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "snapshot %s: deterministic numbers unchanged\n", *snapshot)
	}

	if *check {
		cc := rep.CrossCheck
		if cc == nil {
			fmt.Fprintln(os.Stderr, "-check requires -crosscheck")
			os.Exit(1)
		}
		failed := false
		if !cc.Pass {
			fmt.Fprintln(os.Stderr, "check: per-operator disagreement exceeds committed tolerance")
			failed = true
		}
		if cc.Speedup < validateMinSpeedup {
			fmt.Fprintf(os.Stderr, "check: analytical speedup %.1fx below the committed %dx floor\n",
				cc.Speedup, validateMinSpeedup)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "check: cross-check passed (%.1fx speedup)\n", cc.Speedup)
	}
}
