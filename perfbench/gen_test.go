package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// testOps are small list lengths per workload: enough to use every
// operation kind, small enough for a quick test.
var testOps = map[string]int{"serve-hot": 2000, "plan-reprice": 11, "plan-search": 10, "validate-sweep": 4}

func testWorkloads(t *testing.T) []*workload {
	t.Chdir("..") // the references live in the repository, read from its root
	var out []*workload
	for i := range workloads {
		if testing.Short() && workloads[i].name == "plan-reprice" {
			continue // its set-up searches nine large shapes twice
		}
		out = append(out, &workloads[i])
	}
	return out
}

// TestListsAreDeterministic checks that a seed generates byte-identical
// operation lists, references included.
func TestListsAreDeterministic(t *testing.T) {
	for _, wl := range testWorkloads(t) {
		var lists [2][]byte
		for i := range lists {
			e, err := loadEnv(wl.name == "validate-sweep")
			if err != nil {
				t.Fatal(err)
			}
			var ops []Op
			warm, err := wl.gen(rand.New(rand.NewPCG(7, 0x5eed)), testOps[wl.name], e, func(op Op) { ops = append(ops, op) })
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if lists[i], err = json.Marshal([][]Op{warm, ops}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(lists[0], lists[1]) {
			t.Errorf("%s: two generations from one seed differ", wl.name)
		}
	}
}

// TestRunsRepeatExactly runs each workload's traced pass twice and
// checks that everything the program counts repeats exactly: operation
// counts, served paths, cache-counter deltas and IR instructions per
// operation. Every answer must also check out.
func TestRunsRepeatExactly(t *testing.T) {
	for _, wl := range testWorkloads(t) {
		type counts struct {
			Ops          int
			Counters     map[string]float64
			Instructions float64
		}
		var runs [2]counts
		for i := range runs {
			p, tracers, err := tracedPass(wl, 3, testOps[wl.name])
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if p.failed > 0 {
				t.Fatalf("%s: %d of %d operations failed; first: %v", wl.name, p.failed, p.ops, p.firstErr)
			}
			c := counts{Ops: p.ops, Counters: map[string]float64{},
				Instructions: layerMetrics(tracers, p.ops)["costir.instructions_per_op"]}
			for name, v := range p.counters {
				if !strings.HasPrefix(name, "runtime.") {
					c.Counters[name] = v
				}
			}
			runs[i] = c
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: counts differ between runs:\n%+v\n%+v", wl.name, runs[0], runs[1])
		}
	}
}
