package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// evalBench is a BenchmarkEvaluate hash-join pair at a 10x speedup plus
// the revalidation benchmark with the given figures.
func evalBench(rescoreNs, rescoreBytes, rescoreAllocs float64) []Benchmark {
	return []Benchmark{
		{Name: "Evaluate/tree/hashjoin", NsPerOp: 15000, AllocsPerOp: 109},
		{Name: "Evaluate/ir/hashjoin", NsPerOp: 1500},
		{Name: rescoreBench, NsPerOp: rescoreNs, BytesPerOp: rescoreBytes, AllocsPerOp: rescoreAllocs},
	}
}

func TestCheckAcceptanceRescoreCeilings(t *testing.T) {
	cases := []struct {
		name    string
		benches []Benchmark
		wantErr string
	}{
		{"passing", evalBench(8e7, 22e6, 89_887), ""},
		{"at the ceilings", evalBench(8e7, rescoreMaxBytes, rescoreMaxAllocs), ""},
		{"missing", evalBench(8e7, 22e6, 89_887)[:2], "no " + rescoreBench},
		{"allocs over", evalBench(8e7, 22e6, rescoreMaxAllocs+1), "objects/op, ceiling"},
		{"bytes over", evalBench(8e7, 24.3e6, 89_887), "B/op, ceiling"},
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
	committed := snap(t, evalBench(8e7, 22e6, 89_887))
	cases := []struct {
		name     string
		snapshot string
		now      []Benchmark
		wantErr  string
	}{
		{"faster", committed, evalBench(6e7, 22e6, 89_887), ""},
		{"within 1.25x", committed, evalBench(9.9e7, 22e6, 89_887), ""},
		{"regressed", committed, evalBench(1.01e8, 22e6, 89_887), "regressed"},
		{"missing now", committed, evalBench(8e7, 22e6, 89_887)[:2], "no " + rescoreBench},
		{"missing in snapshot", snap(t, evalBench(8e7, 22e6, 89_887)[:2]), evalBench(8e7, 22e6, 89_887), "has no time"},
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
	rep := Report{Benchmarks: evalBench(8e7, 22e6, 89_887)}
	if err := rep.checkEvalSnapshot(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing snapshot file accepted")
	}
}
