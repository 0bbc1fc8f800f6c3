// Command perfbench is the repository's benchmark. It runs one of four
// seeded, closed-loop workloads against the real code — the HTTP
// server in pkg/costmodel/server over loopback for the plan and serving
// workloads, validate.Run for the validation sweep — checks every
// answer, and prints its metrics as the last line of standard output:
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the list once
// untraced and once traced, and prints the per-layer metrics. See
// README.md for the workloads, the metrics and the layers they measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/queryplan"
	"repro/pkg/costmodel/server"
)

// processStart approximates the process's start for setup_s.
var processStart = time.Now()

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// rate is the nominal operations per second on a 2-core machine:
	// a --trace 0 run measures rate × --seconds operations, so their
	// number is fixed by the flags and not by how fast the code under
	// test runs. The list holds rate × --seconds / setups of them and
	// runs once after each set-up.
	rate float64
	// http reports whether the operations go through the HTTP server.
	http bool
	cfg  server.Config
	// window, when set, cuts the measured phase into periods of this
	// length and takes ops_per_s, latency_p50_ms and cpu_ms_per_op from
	// the run's best quarter of them (see windowed).
	window time.Duration
	// tailBlock is the number of consecutive operations of one client
	// over which latency_tail_ms takes its percentile (see blockTail).
	tailBlock int
	// setups is how many times a --trace 0 run sets up and measures;
	// setup_s is the median set-up. A set-up of about 0.1 s is swayed by
	// a single scheduling stall, so the shortest one is repeated more
	// often.
	setups int
	// gen returns the warm-up operations and passes the measured ones,
	// in order, to emit.
	gen func(rng *rand.Rand, n int, e *env, emit func(Op)) (warm []Op, err error)
}

var workloads = []workload{
	{name: "serve-hot", clients: 2, rate: 25000, http: true, window: 500 * time.Millisecond, tailBlock: 1000, setups: 3, gen: genServeHot},
	{name: "plan-reprice", clients: 1, rate: 16, http: true, tailBlock: 1000, setups: 3, gen: genPlanReprice},
	{name: "plan-search", clients: 1, rate: 95, http: true, tailBlock: 1000, setups: 3, cfg: server.Config{PlanCacheSize: -1}, gen: genPlanSearch},
	// Every validate-sweep operation prices the same grid, so a block of
	// 250 still holds one kind of operation, and the run has ten blocks.
	{name: "validate-sweep", clients: 1, rate: 210, tailBlock: 250, setups: 9, gen: func(_ *rand.Rand, n int, _ *env, emit func(Op)) ([]Op, error) {
		return genValidate(n, emit), nil
	}},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-hot, plan-reprice, plan-search or validate-sweep")
		seed    = flag.Uint64("seed", 1, "seed of the generated operations")
		seconds = flag.Int("seconds", 10, "nominal run length; the list holds the workload's nominal rate × seconds operations")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-hot|plan-reprice|plan-search|validate-sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	n := max(1, int(wl.rate*float64(*seconds)/float64(wl.setups)))
	var err error
	if *traced == 0 {
		err = runEndToEnd(wl, *seed, n)
	} else {
		err = runTraced(wl, *seed, n, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setup generates the workload's operations with their references,
// starts a fresh server and runs the warm-up operations. The step cache
// is process-wide, so it is emptied first: every set-up interns it from
// scratch.
func setup(wl *workload, seed uint64, n int, traced bool) (*rig, *opList, error) {
	queryplan.ResetStepCache()
	runtime.GC() // frees an earlier set-up's list before this one is built
	e, err := loadEnv(wl.name == "validate-sweep")
	if err != nil {
		return nil, nil, err
	}
	list := newOpList(traced)
	warmOps, err := wl.gen(rand.New(rand.NewPCG(seed, 0x5eed)), n, e, list.add)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		// The traced run re-binds owners' recipes; search them now,
		// outside any span.
		for _, op := range list.typed {
			if op.Plan != nil && op.Served != server.PlanServedSearch {
				if _, err := e.owner(op.Shape); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	warm := newOpList(true)
	for _, op := range warmOps {
		warm.add(op)
	}
	r := &rig{env: e}
	if wl.http {
		if r, err = startRig(wl.cfg, e, wl.clients, traced); err != nil {
			return nil, nil, err
		}
	}
	for _, op := range warm.ops {
		if o := r.do(warm, op); o.err != nil {
			r.close()
			return nil, nil, fmt.Errorf("warm-up: %w", o.err)
		}
		if traced {
			r.twinDo(&warm.typed[op.index])
		}
	}
	return r, list, nil
}

// twinDo sends an untimed operation to the twin server.
func (r *rig) twinDo(op *Op) {
	switch {
	case op.Plan != nil:
		r.twin.Plan(*op.Plan)
	case op.Eval != nil:
		r.twin.Evaluate(*op.Eval)
	case op.Batch != nil:
		r.twin.EvaluateBatch(op.Batch.Requests)
	}
}

// pass is the record of one measured phase.
type pass struct {
	ops       int
	wall      time.Duration
	latencies []time.Duration
	// byClient holds each client's latencies in sending order.
	byClient [][]time.Duration
	failed   int
	firstErr error
	// served holds the latencies of the operations answered on each
	// served path (indexes of servedPaths).
	served [4][]time.Duration
	// searches counts the full plan searches the server ran, from its
	// plan-cache misses and revalidation misses.
	searches int
	diverged int
	cpu      time.Duration
	counters map[string]float64
	// windows holds the measured phase's sampling periods, when the
	// workload has any.
	windows []window
}

// measure runs the list closed-loop and records the end-to-end view
// plus the counters that tracing does not disturb. A non-zero window
// also samples the process's CPU time every window and cuts the phase
// into those periods.
func measure(r *rig, l *opList, clients int, window time.Duration, each func(c int, op wireOp) outcome) *pass {
	runtime.GC()
	st0, rt0, cpu0 := r.stats(), readRuntime(), cpuTime()
	var samples <-chan []cpuSample
	stop := make(chan struct{})
	if window > 0 {
		samples = sampleCPU(window, stop)
	}
	start, wall, results := runClosedLoop(l, clients, each)
	cpu := cpuTime() - cpu0
	close(stop)
	rt1, st1 := readRuntime(), r.stats()
	p := &pass{ops: len(l.ops), wall: wall, cpu: cpu}
	if samples != nil {
		p.windows = windows(start, <-samples, results)
	}
	for _, res := range results {
		p.latencies = append(p.latencies, res.latencies...)
		p.byClient = append(p.byClient, res.latencies)
		for i, path := range res.paths {
			p.served[path] = append(p.served[path], res.latencies[i])
		}
		p.diverged += res.diverged
		if res.failed > 0 && p.failed == 0 {
			p.firstErr = res.firstErr
		}
		p.failed += res.failed
	}
	p.searches = st1.searches() - st0.searches()
	p.counters = counterDeltas(st0, st1, rt0, rt1, p.ops)
	for i, path := range servedPaths[1:] {
		p.counters["served."+path] = float64(len(p.served[i+1]))
	}
	return p
}

// runEndToEnd sets up and measures the list wl.setups times and
// reports the median phase. The host's speed drifts over tens of
// seconds, so phases spread over the whole run, each after its own
// set-up, sample more of it than one long phase at the end would, and
// the median sets one slow phase aside.
func runEndToEnd(wl *workload, seed uint64, n int) error {
	var setups, rss []float64
	var phases []*pass
	for rep := 0; rep < wl.setups; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		r, ops, err := setup(wl, seed, n, false)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := resetPeakRSS(); err != nil {
			r.close()
			return err
		}
		p := measure(r, ops, wl.clients, wl.window, func(_ int, op wireOp) outcome { return r.do(ops, op) })
		r.close()
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		fmt.Printf("phase %d of %d:\n", rep+1, wl.setups)
		report(wl, seed, p, r.env)
		phases = append(phases, p)
	}
	total := &pass{byClient: make([][]time.Duration, wl.clients)}
	var opsPerS, p50s, cpuPerOps []float64
	var ws []window
	for _, p := range phases {
		total.ops += p.ops
		if p.failed > 0 && total.failed == 0 {
			total.firstErr = p.firstErr
		}
		total.failed += p.failed
		for c, lat := range p.byClient {
			total.byClient[c] = append(total.byClient[c], lat...)
		}
		opsPerS = append(opsPerS, float64(p.ops)/p.wall.Seconds())
		p50s = append(p50s, ms(median(p.latencies)))
		cpuPerOps = append(cpuPerOps, ms(p.cpu)/float64(p.ops))
		ws = append(ws, p.windows...)
	}
	tail, blocks, size := blockTail(total.byClient, wl.tailBlock)
	m := map[string]metric{
		"ops_per_s":       {medianFloat(opsPerS), "1/s"},
		"latency_p50_ms":  {medianFloat(p50s), "ms"},
		"latency_tail_ms": {ms(tail), "ms"},
		"cpu_ms_per_op":   {medianFloat(cpuPerOps), "ms"},
		"peak_rss_mb":     {medianFloat(rss), "MB"},
		"setup_s":         {medianFloat(setups), "s"},
	}
	fmt.Printf("phases: ops_per_s %.4g, latency_p50_ms %.4g, cpu_ms_per_op %.4g\n", opsPerS, p50s, cpuPerOps)
	if wl.window > 0 {
		tput, p50, cpu := windowed(ws)
		m["ops_per_s"], m["latency_p50_ms"], m["cpu_ms_per_op"] = metric{tput, "1/s"}, metric{ms(p50), "ms"}, metric{ms(cpu), "ms"}
		fmt.Printf("ops_per_s, latency_p50_ms, cpu_ms_per_op: best quartile over the phases' %d windows of %v\n", len(ws), wl.window)
	} else {
		fmt.Println("ops_per_s, latency_p50_ms, cpu_ms_per_op: median over the phases")
	}
	fmt.Printf("latency_tail_ms: median over %d blocks of ~%.0f consecutive operations of each block's p%.2f (%d samples beyond it)\n",
		blocks, size, 100*(1-tailBeyond/size), tailBeyond)
	fmt.Printf("setup_s samples: %.3f\n", setups)
	fmt.Printf("peak_rss_mb samples (each measured phase): %.1f\n", rss)
	if total.failed > 0 {
		fmt.Printf("FAILED %d of %d operations; first: %v\n", total.failed, total.ops, total.firstErr)
	}
	return printResult(total, m)
}

func runTraced(wl *workload, seed uint64, n int, spanDir string) error {
	r, ops, err := setup(wl, seed, n, false)
	if err != nil {
		return err
	}
	plain := measure(r, ops, wl.clients, 0, func(_ int, op wireOp) outcome { return r.do(ops, op) })
	r.close()
	report(wl, seed, plain, r.env)

	traced, tracers, err := tracedPass(wl, seed, n)
	if err != nil {
		return err
	}
	if traced.failed > 0 && plain.failed == 0 {
		plain.failed, plain.firstErr = traced.failed, traced.firstErr
	}
	layers := layerMetrics(tracers, traced.ops)
	overhead := ms(median(traced.latencies)) - ms(median(plain.latencies))
	path := fmt.Sprintf("%s/%s-seed%d.jsonl", spanDir, wl.name, seed)
	if err := writeSpans(path, tracers); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	fmt.Printf("tracing overhead: traced latency_p50_ms %.4f - untraced %.4f = %.4f ms\n",
		ms(median(traced.latencies)), ms(median(plain.latencies)), overhead)
	splitChecks(wl.name, layers, plain, traced, tracers)

	out := map[string]metric{"trace.overhead_ms": {overhead, "ms"}}
	for name, v := range layers {
		out[name] = metric{v, "ms"}
	}
	out["costir.instructions_per_op"] = metric{layers["costir.instructions_per_op"], "count/op"}
	for name, v := range plain.counters {
		out[name] = metric{v, counterUnits[name]}
	}
	return printResult(plain, out)
}

// tracedPass sets up afresh with a twin server and runs the list with
// every operation traced.
func tracedPass(wl *workload, seed uint64, n int) (*pass, []*tracer, error) {
	r, ops, err := setup(wl, seed, n, true)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	tracers := make([]*tracer, wl.clients)
	t0 := time.Now()
	for c := range tracers {
		tracers[c] = &tracer{t0: t0}
	}
	p := measure(r, ops, wl.clients, 0, func(c int, op wireOp) outcome {
		return r.traceOp(tracers[c], ops, op)
	})
	return p, tracers, nil
}

// splitChecks prints whether the traced run confirms how the workloads
// divide their time between layers. Layer times come from the
// benchmark's re-enactment of the calls each served path implies, so
// they cannot tell whether the server itself ran the DP; that is read
// from the server's own plan-cache counters instead (a miss or a
// revalidation miss is a full search). DP time inside the server is
// not measurable until the program traces itself.
func splitChecks(wl string, m map[string]float64, plain, traced *pass, tracers []*tracer) {
	phase2 := m["queryplan.lower_ms"] + m["costir.compile_ms"] + m["costir.eval_ms"]
	check := func(what string, ok bool) {
		verdict := "holds"
		if !ok {
			verdict = "DOES NOT HOLD"
		}
		fmt.Printf("split check (%s): %s: %s\n", wl, what, verdict)
	}
	switch wl {
	case "plan-search":
		check("queryplan.search_ms >= server.plan_ms / 2", m["queryplan.search_ms"] >= m["server.plan_ms"]/2)
	case "plan-reprice":
		check("lower + compile + eval >= server.plan_ms / 2", phase2 >= m["server.plan_ms"]/2)
		var searched, servedSearch []int
		for _, t := range tracers {
			searched = append(searched, t.serverSearched...)
			servedSearch = append(servedSearch, t.servedSearch...)
		}
		check(fmt.Sprintf("the server searched on operations %v, those served search are %v", searched, servedSearch),
			slices.Equal(searched, servedSearch))
		check(fmt.Sprintf("untraced run: %d server searches, %d operations served search", plain.searches, len(plain.served[3])),
			plain.searches == len(plain.served[3]))
	case "serve-hot":
		check(fmt.Sprintf("the server ran no search (%d untraced, %d traced)", plain.searches, traced.searches),
			plain.searches == 0 && traced.searches == 0)
	}
	if wl != "validate-sweep" {
		fmt.Printf("split check (%s): DP time inside the server: not measurable until in-program tracing\n", wl)
	}
}

// report prints the human-readable lines that precede the result.
func report(wl *workload, seed uint64, p *pass, e *env) {
	fmt.Printf("workload %s: seed %d, %d clients, %d operations in %.3f s\n", wl.name, seed, wl.clients, p.ops, p.wall.Seconds())
	for i, path := range servedPaths[1:] {
		if lat := p.served[i+1]; len(lat) > 0 {
			fmt.Printf("served %s: %d operations, latency p50 %.3f ms, max %.3f ms\n", path, len(lat), ms(median(lat)), ms(slices.Max(lat)))
		}
	}
	if e.droppedDrifts > 0 {
		fmt.Printf("drifts not sent because the cached winner would lose: %d\n", e.droppedDrifts)
	}
	if p.diverged > 0 {
		fmt.Printf("known divergence: %d catalog-spelled answers matched their pinned divergence from the golden corpus\n", p.diverged)
	}
	if p.failed > 0 {
		fmt.Printf("FAILED %d of %d operations; first: %v\n", p.failed, p.ops, p.firstErr)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(p *pass, m map[string]metric) error {
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{p.failed == 0, p.ops, p.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// counterUnits are the units of the counter metrics.
var counterUnits = map[string]string{
	"server.plan_cache.hit_ratio":           "ratio",
	"server.plan_cache.revalidations":       "count",
	"server.plan_cache.revalidation_misses": "count",
	"server.result_cache.hit_ratio":         "ratio",
	"server.compile_cache.hit_ratio":        "ratio",
	"server.batch_dedup.hit_ratio":          "ratio",
	"served.cache":                          "count",
	"served.revalidated":                    "count",
	"served.search":                         "count",
	"runtime.alloc_bytes_per_op":            "bytes/op",
	"runtime.gc_cycles_per_op":              "count/op",
	"runtime.gc_cpu_fraction":               "ratio",
}

// serverStats is a snapshot of the server's cache counters.
type serverStats struct {
	plan    server.PlanCacheStats
	result  server.ResultCacheStats
	compile server.CompileCacheStats
	dedup   server.BatchDedupStats
}

func (r *rig) stats() serverStats {
	if r.srv == nil {
		return serverStats{}
	}
	return serverStats{r.srv.PlanCacheStats(), r.srv.ResultCacheStats(), r.srv.CompileCacheStats(), r.srv.BatchDedupStats()}
}

// searches counts the full plan searches a plan-cache server has run.
func (s serverStats) searches() int {
	return int(s.plan.Misses + s.plan.RevalidationMisses)
}

func (r *rig) searches() int {
	if r.srv == nil {
		return 0
	}
	return serverStats{plan: r.srv.PlanCacheStats()}.searches()
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// counterDeltas turns two snapshots into the measured phase's counter
// metrics.
func counterDeltas(a, b serverStats, rt0, rt1 []float64, ops int) map[string]float64 {
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	planHits := b.plan.Hits - a.plan.Hits
	planOther := (b.plan.Misses - a.plan.Misses) + (b.plan.Revalidations - a.plan.Revalidations) +
		(b.plan.RevalidationMisses - a.plan.RevalidationMisses)
	m := map[string]float64{
		"server.plan_cache.hit_ratio":           ratio(planHits, planOther),
		"server.plan_cache.revalidations":       float64(b.plan.Revalidations - a.plan.Revalidations),
		"server.plan_cache.revalidation_misses": float64(b.plan.RevalidationMisses - a.plan.RevalidationMisses),
		"server.result_cache.hit_ratio":         ratio(b.result.Hits-a.result.Hits, b.result.Misses-a.result.Misses),
		"server.compile_cache.hit_ratio":        ratio(b.compile.Hits-a.compile.Hits, b.compile.Misses-a.compile.Misses),
		"server.batch_dedup.hit_ratio":          ratio(b.dedup.Hits-a.dedup.Hits, b.dedup.Misses-a.dedup.Misses),
		"runtime.alloc_bytes_per_op":            (rt1[0] - rt0[0]) / float64(ops),
		"runtime.gc_cycles_per_op":              (rt1[1] - rt0[1]) / float64(ops),
	}
	if cpu := rt1[3] - rt0[3]; cpu > 0 {
		m["runtime.gc_cpu_fraction"] = (rt1[2] - rt0[2]) / cpu
	} else {
		m["runtime.gc_cpu_fraction"] = 0
	}
	return m
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the memory the heap does not use to the system
// and restarts the kernel's count of the process's peak resident set
// (VmHWM) from the current one, so that peakRSSMB sees one measured
// phase only: not the set-up, whose peak comes mostly from the
// benchmark computing its reference answers.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// tailBeyond is the number of samples a block must have beyond its
// tail. A block's tail is its highest percentile with tailBeyond samples
// beyond it; latency_tail_ms is the median over the run's blocks. On a
// 2-core virtual machine a few runs in ten see thousands of
// multi-millisecond scheduling stalls from outside the process; the
// median over blocks keeps the tail of the code's own latency
// distribution rather than the count of those stalls.
const tailBeyond = 10

// blockTail splits each client's latencies into round(len/tailBlock)
// blocks of consecutive operations (at least one; sizes differ by at
// most one) and returns the median block tail, the number of blocks,
// and the mean block size.
func blockTail(byClient [][]time.Duration, tailBlock int) (tail time.Duration, blocks int, size float64) {
	var tails []time.Duration
	ops := 0
	for _, lat := range byClient {
		n := max(1, (len(lat)+tailBlock/2)/tailBlock)
		for b := 0; b < n; b++ {
			s := append([]time.Duration(nil), lat[b*len(lat)/n:(b+1)*len(lat)/n]...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			tails = append(tails, s[len(s)-1-min(tailBeyond, len(s)-1)])
		}
		ops += len(lat)
	}
	return median(tails), len(tails), float64(ops) / float64(len(tails))
}

// cpuSample is the process's CPU time read at one moment.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads the process's CPU time now and then every period
// until stop is closed, and then sends the samples.
func sampleCPU(period time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	go func() {
		samples := []cpuSample{{time.Now(), cpuTime()}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- samples
				return
			case <-t.C:
				samples = append(samples, cpuSample{time.Now(), cpuTime()})
			}
		}
	}()
	return out
}

// window is one sampling period of a measured phase: the operations
// whose responses were read in it.
type window struct {
	opsPerS  float64
	p50      time.Duration
	cpuPerOp time.Duration
}

// windows cuts a closed loop that started at start into the periods
// between consecutive samples. The time after the last sample is left
// out, and so is a period in which no operation ended.
func windows(start time.Time, samples []cpuSample, results []clientResult) []window {
	if len(samples) < 2 {
		return nil
	}
	bounds := make([]time.Duration, len(samples))
	for i, s := range samples {
		bounds[i] = s.at.Sub(start)
	}
	lat := make([][]time.Duration, len(samples)-1)
	for _, res := range results {
		for i, end := range res.ends {
			if k := sort.Search(len(bounds), func(k int) bool { return bounds[k] > end }) - 1; k >= 0 && k < len(lat) {
				lat[k] = append(lat[k], res.latencies[i])
			}
		}
	}
	var out []window
	for k, l := range lat {
		if len(l) == 0 {
			continue
		}
		out = append(out, window{
			opsPerS:  float64(len(l)) / (bounds[k+1] - bounds[k]).Seconds(),
			p50:      median(l),
			cpuPerOp: (samples[k+1].cpu - samples[k].cpu) / time.Duration(len(l)),
		})
	}
	return out
}

// windowed returns ops_per_s, latency_p50_ms and cpu_ms_per_op from a
// run's best quarter of windows: the upper quartile of the windows'
// throughputs and the lower quartiles of their median latencies and
// CPU per operation. On a shared 2-core virtual machine the speed the
// host gives the process swings by 20-40% from one second to the
// next — within one serve-hot run, half-second windows of the same
// operation mix ranged from 16k to 23k operations per second, with CPU
// per operation moving alike — and how much of a run falls into slow
// spells decides a whole-run figure. Every window carries the same
// mix, so a change to the code moves all of them and the quartile with
// them.
func windowed(ws []window) (opsPerS float64, p50, cpuPerOp time.Duration) {
	var tput, lat, cpu []float64
	for _, w := range ws {
		tput = append(tput, w.opsPerS)
		lat = append(lat, float64(w.p50))
		cpu = append(cpu, float64(w.cpuPerOp))
	}
	return quantile(tput, 0.75), time.Duration(quantile(lat, 0.25)), time.Duration(quantile(cpu, 0.25))
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
