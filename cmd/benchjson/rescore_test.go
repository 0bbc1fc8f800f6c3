package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compileBench is a Compile/quicksort-64MB result with the given
// figures.
func compileBench(bytes, allocs float64) Benchmark {
	return Benchmark{Name: "Compile/quicksort-64MB", NsPerOp: 8e6, BytesPerOp: bytes, AllocsPerOp: allocs}
}

// evalBench is a BenchmarkEvaluate hash-join pair at a 10x speedup, a
// passing compile benchmark, and the revalidation benchmark with the
// given figures.
func evalBench(rescoreNs, rescoreBytes, rescoreAllocs float64) []Benchmark {
	return []Benchmark{
		{Name: "Evaluate/tree/hashjoin", NsPerOp: 15000, AllocsPerOp: 109},
		{Name: "Evaluate/ir/hashjoin", NsPerOp: 1500},
		compileBench(2_523_264, 6),
		{Name: rescoreBench, NsPerOp: rescoreNs, BytesPerOp: rescoreBytes, AllocsPerOp: rescoreAllocs},
	}
}

// withCompile replaces the compile benchmark of benches.
func withCompile(benches []Benchmark, b Benchmark) []Benchmark {
	out := append([]Benchmark(nil), benches...)
	out[2] = b
	return out
}

// TestCheckAcceptanceRescoreCeilings covers every work ceiling of
// -check: the rescore's and the quick-sort compile's.
func TestCheckAcceptanceRescoreCeilings(t *testing.T) {
	passing := evalBench(6e7, 5.81e6, 57_404)
	cases := []struct {
		name    string
		benches []Benchmark
		wantErr string
	}{
		{"passing", passing, ""},
		{"at the ceilings", withCompile(evalBench(6e7, 7_000_000, 60_000), compileBench(3_000_000, 64)), ""},
		{"rescore missing", passing[:3], "no " + rescoreBench},
		{"compile missing", append(passing[:2:2], passing[3]), "no Compile/quicksort-64MB"},
		{"rescore allocs over", evalBench(6e7, 5.81e6, 60_001), rescoreBench + " allocates 60001 objects/op"},
		{"rescore bytes over", evalBench(6e7, 22e6, 57_404), rescoreBench + " allocates 22000000 B/op"},
		{"compile allocs over", withCompile(passing, compileBench(2_523_264, 20_710)), "objects/op, ceiling 64"},
		{"compile bytes over", withCompile(passing, compileBench(14_119_296, 6)), "B/op, ceiling 3000000"},
	}
	for _, tc := range cases {
		rep := Report{Benchmarks: tc.benches, Speedups: speedups(tc.benches)}
		err := rep.checkAcceptance()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCheckEvalSnapshot(t *testing.T) {
	snap := func(t *testing.T, benches []Benchmark) string {
		t.Helper()
		buf, err := json.Marshal(Report{Benchmarks: benches})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "BENCH_eval.json")
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	committed := snap(t, evalBench(8e7, 5.81e6, 57_404))
	cases := []struct {
		name     string
		snapshot string
		now      []Benchmark
		wantErr  string
	}{
		{"faster", committed, evalBench(6e7, 5.81e6, 57_404), ""},
		{"within 1.25x", committed, evalBench(9.9e7, 5.81e6, 57_404), ""},
		{"regressed", committed, evalBench(1.01e8, 5.81e6, 57_404), "regressed"},
		{"missing now", committed, evalBench(8e7, 5.81e6, 57_404)[:2], "no " + rescoreBench},
		{"missing in snapshot", snap(t, evalBench(8e7, 5.81e6, 57_404)[:2]), evalBench(8e7, 5.81e6, 57_404), "has no time"},
	}
	for _, tc := range cases {
		rep := Report{Benchmarks: tc.now}
		err := rep.checkEvalSnapshot(tc.snapshot)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	rep := Report{Benchmarks: evalBench(8e7, 5.81e6, 57_404)}
	if err := rep.checkEvalSnapshot(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing snapshot file accepted")
	}
}
