// Command costmodel evaluates data access patterns on hardware
// profiles using the paper's generic cost model.
//
// It has seven subcommands:
//
//	costmodel eval       evaluate one pattern and print per-level misses
//	                     and the memory access time (Eq. 3.1); the
//	                     default when no subcommand is given
//	costmodel scenarios  list the query-plan scenario catalog, or rank a
//	                     scenario's physical plans (join order +
//	                     algorithm choices) on a hardware profile
//	costmodel calibrate  discover this machine's (or a simulated
//	                     machine's) cache hierarchy and register it as a
//	                     hardware profile
//	costmodel validate   sweep every operator pattern and report the
//	                     relative error of the model's predictions
//	                     against reference cache simulation
//	costmodel serve      run the HTTP/JSON evaluation service (which
//	                     also exposes plan, calibrate and validate
//	                     endpoints)
//	costmodel loadgen    drive an in-process server with an open-loop
//	                     plan-request workload and report serving
//	                     latencies, plan-cache hit rates and the
//	                     committed serving SLOs (BENCH_serve.json)
//	costmodel experiments
//	                     regenerate the paper's tables and figures
//
// Regions are declared as name:items:width triples; the pattern uses
// the paper's Table 2 language with (+) for ⊕ and (.) for ⊙:
//
//	costmodel eval -region U:1000000:8 -region H:2097152:16 -region W:1000000:8 \
//	    -pattern 's_trav(U) (.) r_acc(1000000, H) (.) s_trav(W)'
//
//	costmodel eval -region U:4194304:8 \
//	    -pattern 'rs_trav(10, bi, U)' -profile modern-x86 -cpu 1e6 -explain
//
//	costmodel scenarios
//	costmodel scenarios -scenario join3-chain-q3 -profile modern-x86 -top 5
//	costmodel calibrate -name this-box
//	costmodel validate -quick -json
//	costmodel serve -addr :8080
//	costmodel experiments -exp table3 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/pkg/costmodel"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			runServe(args[1:])
			return
		case "calibrate":
			runCalibrate(args[1:])
			return
		case "validate":
			runValidate(args[1:])
			return
		case "scenarios":
			runScenarios(args[1:])
			return
		case "loadgen":
			runLoadgen(args[1:])
			return
		case "experiments":
			runExperiments(args[1:])
			return
		case "eval":
			args = args[1:]
		}
	}
	runEval(args)
}

type regionFlags struct {
	regions map[string]*costmodel.Region
}

func (f *regionFlags) String() string { return "" }

func (f *regionFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("region %q: want name:items:width", v)
	}
	n, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("region %q: bad item count", v)
	}
	w, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return fmt.Errorf("region %q: bad width", v)
	}
	f.regions[parts[0]] = costmodel.NewRegion(parts[0], n, w)
	return nil
}

func runEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	regions := &regionFlags{regions: map[string]*costmodel.Region{}}
	var (
		patternStr = fs.String("pattern", "", "pattern expression (Table 2 language)")
		profile    = fs.String("profile", "origin2000", "hardware profile: "+profileNames())
		profiles   = fs.String("profiles", "", "comma-separated profile grid (or \"all\"): compile the pattern once and evaluate it on every profile")
		cpuNS      = fs.Float64("cpu", 0, "pure CPU time T_cpu in ns (Eq. 6.1)")
		explain    = fs.Bool("explain", false, "print the per-pattern-node cost breakdown")
	)
	fs.Var(regions, "region", "region declaration name:items:width (repeatable)")
	fs.Parse(args)

	if *patternStr == "" {
		fmt.Fprintln(os.Stderr, "missing -pattern; see -h")
		os.Exit(2)
	}
	if *profiles != "" {
		runEvalGrid(*profiles, *patternStr, *cpuNS, regions.regions)
		return
	}
	model, err := costmodel.DefaultRegistry().Model(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	h := model.Hierarchy()

	p, err := costmodel.ParsePattern(*patternStr, regions.regions)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := model.Evaluate(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("profile: %s\npattern: %s\n\n", h.Name, p)
	fmt.Printf("%-6s %14s %14s %14s %14s\n", "level", "seq-misses", "rnd-misses", "total", "time[ms]")
	for _, lr := range res.PerLevel {
		fmt.Printf("%-6s %14.0f %14.0f %14.0f %14.3f\n",
			lr.Level.Name, lr.Misses.Seq, lr.Misses.Rnd, lr.Misses.Total(),
			lr.MemoryTimeNS()/1e6)
	}
	fmt.Printf("\nT_mem  = %.3f ms\n", res.MemoryTimeNS()/1e6)
	if *cpuNS > 0 {
		fmt.Printf("T_cpu  = %.3f ms\n", *cpuNS/1e6)
		fmt.Printf("T      = %.3f ms (Eq. 6.1)\n", (res.MemoryTimeNS()+*cpuNS)/1e6)
	}
	if *explain {
		ex, err := model.Explain(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		ex.Render(os.Stdout)
	}
}

// runEvalGrid evaluates one pattern across a profile grid on a single
// shared compiled program: the compile step (the swept-parameter-
// invariant prefix) is paid once, each profile then re-evaluates the
// flat IR against its own hierarchy.
func runEvalGrid(list, patternStr string, cpuNS float64, regions map[string]*costmodel.Region) {
	var names []string
	if list == "all" {
		names = costmodel.ProfileNames()
	} else {
		names = strings.Split(list, ",")
	}
	p, err := costmodel.ParsePattern(patternStr, regions)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog, err := costmodel.Compile(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("pattern: %s\n\n", p)
	fmt.Printf("%-14s %14s %14s %14s\n", "profile", "seq-misses", "rnd-misses", "t.mem[ms]")
	for _, name := range names {
		model, err := costmodel.DefaultRegistry().Model(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res := model.EvaluateCompiled(prog)
		var seq, rnd float64
		for _, lr := range res.PerLevel {
			seq += lr.Misses.Seq
			rnd += lr.Misses.Rnd
		}
		fmt.Printf("%-14s %14.0f %14.0f %14.3f\n",
			model.Hierarchy().Name, seq, rnd, res.MemoryTimeNS()/1e6)
	}
	if cpuNS > 0 {
		fmt.Printf("\nT_cpu = %.3f ms is added on top of each t.mem (Eq. 6.1)\n", cpuNS/1e6)
	}
}

func profileNames() string {
	return strings.Join(costmodel.ProfileNames(), ", ")
}
