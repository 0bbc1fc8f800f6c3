package main

import (
	"strings"
	"testing"
)

// planBench builds PlanSearch cold/warm pairs for every reference
// scenario except skip, with the given cold and warm times.
func planBench(coldNs, warmNs float64, skip string) []Benchmark {
	var out []Benchmark
	for _, name := range checkPlanDPOnly {
		if name == skip {
			continue
		}
		out = append(out,
			Benchmark{Name: "PlanSearch/dpcold/" + name, NsPerOp: coldNs},
			Benchmark{Name: "PlanSearch/dp/" + name, NsPerOp: warmNs})
	}
	return out
}

func TestCheckPlanAcceptance(t *testing.T) {
	cases := []struct {
		name    string
		benches []Benchmark
		wantErr string
	}{
		{"passing", planBench(5e6, 1e6, ""), ""},
		{"join4-chain missing", planBench(5e6, 1e6, "join4-chain"), "join4-chain missing"},
		{"no cold baseline", planBench(0, 1e6, ""), "no cold-cache baseline"},
		{"warm not faster", planBench(1e6, 1e6, ""), "not faster than a cold one"},
	}
	for _, tc := range cases {
		rep := Report{PlanSearch: planSpeedups(tc.benches)}
		err := rep.checkPlanAcceptance()
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
