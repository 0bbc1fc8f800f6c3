package calibrate

import (
	"context"
	"math"
	"testing"

	"repro/internal/hardware"
)

func approx(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestSimulatedDiscoversSmallTest(t *testing.T) {
	h := hardware.SmallTest()
	res := Simulated(h, 64<<10)
	if len(res.Levels) != 3 {
		t.Fatalf("discovered %d levels, want 3 (L1, TLB, L2):\n%s", len(res.Levels), res)
	}
	// Ordered by capacity: L1 (1kB, 32B), TLB (2kB, 256B pages), L2 (8kB, 64B).
	l1, tlb, l2 := res.Levels[0], res.Levels[1], res.Levels[2]
	if l1.Capacity != 1<<10 || l1.LineSize != 32 {
		t.Errorf("L1 = %+v, want 1kB/32B", l1)
	}
	if tlb.Capacity != 2<<10 || tlb.LineSize != 256 {
		t.Errorf("TLB = %+v, want 2kB/256B pages", tlb)
	}
	if l2.Capacity != 8<<10 || l2.LineSize != 64 {
		t.Errorf("L2 = %+v, want 8kB/64B", l2)
	}
	if !approx(l1.RndLatency, 10, 0.15) || !approx(l1.SeqLatency, 4, 0.3) {
		t.Errorf("L1 latencies = %+v, want ≈10/4", l1)
	}
	if !approx(tlb.RndLatency, 60, 0.15) {
		t.Errorf("TLB latency = %+v, want ≈60", tlb)
	}
	if !approx(l2.RndLatency, 100, 0.15) || !approx(l2.SeqLatency, 40, 0.3) {
		t.Errorf("L2 latencies = %+v, want ≈100/40", l2)
	}
}

func TestSimulatedDiscoversOrigin2000(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB sweeps")
	}
	h := hardware.Origin2000()
	res := Simulated(h, 16<<20)
	if len(res.Levels) != 3 {
		t.Fatalf("discovered %d levels, want 3:\n%s", len(res.Levels), res)
	}
	l1, tlb, l2 := res.Levels[0], res.Levels[1], res.Levels[2]
	if l1.Capacity != 32<<10 || l1.LineSize != 32 {
		t.Errorf("L1 = %+v, want 32kB/32B", l1)
	}
	if tlb.Capacity != 1<<20 || tlb.LineSize != 16<<10 {
		t.Errorf("TLB = %+v, want 1MB/16kB", tlb)
	}
	if l2.Capacity != 4<<20 || l2.LineSize != 128 {
		t.Errorf("L2 = %+v, want 4MB/128B", l2)
	}
	if !approx(l1.RndLatency, 24, 0.15) || !approx(tlb.RndLatency, 228, 0.15) || !approx(l2.RndLatency, 400, 0.15) {
		t.Errorf("latencies off: %+v / %+v / %+v", l1, tlb, l2)
	}
	if !approx(l2.SeqLatency, 188, 0.3) {
		t.Errorf("L2 seq latency = %g, want ≈188", l2.SeqLatency)
	}
}

func TestResultHierarchyRoundTrip(t *testing.T) {
	h := hardware.SmallTest()
	res := Simulated(h, 64<<10)
	rh := res.Hierarchy("discovered", 1.0)
	if err := rh.Validate(); err != nil {
		t.Fatalf("discovered hierarchy invalid: %v\n%s", err, res)
	}
	if rh.NumLevels() != len(res.Levels) {
		t.Error("level count mismatch")
	}
}

func TestResultString(t *testing.T) {
	res := &Result{Levels: []LevelEstimate{{Capacity: 1024, LineSize: 32, SeqLatency: 4, RndLatency: 10}}}
	if s := res.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestHostCalibratorRunsAndIsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	res, err := Run(context.Background(), Options{MaxFootprint: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	// We cannot assert the host's real cache parameters, only sanity:
	// capacities strictly increasing, line sizes positive, latencies
	// non-negative with rnd ≥ seq.
	var prev int64
	for _, l := range res.Levels {
		if l.Capacity <= prev {
			t.Errorf("capacities not increasing: %+v", res.Levels)
		}
		prev = l.Capacity
		if l.LineSize <= 0 {
			t.Errorf("bad line size: %+v", l)
		}
		if l.SeqLatency < 0 || l.RndLatency < l.SeqLatency {
			t.Errorf("bad latencies: %+v", l)
		}
	}
}

func TestRunSimulatedMatchesSimulated(t *testing.T) {
	h := hardware.SmallTest()
	res, err := Run(context.Background(), Options{Source: h, MaxFootprint: 64 << 10})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := Simulated(h, 64<<10)
	if len(res.Levels) != len(want.Levels) {
		t.Fatalf("Run found %d levels, Simulated %d", len(res.Levels), len(want.Levels))
	}
	for i := range res.Levels {
		if res.Levels[i] != want.Levels[i] {
			t.Errorf("level %d: Run %+v != Simulated %+v", i, res.Levels[i], want.Levels[i])
		}
	}
}

func TestRunDefaultFootprint(t *testing.T) {
	opts := Options{Source: hardware.SmallTest()}.withDefaults()
	// 4x the outermost capacity (8 kB L2).
	if want := int64(4 * (8 << 10)); opts.MaxFootprint != want {
		t.Errorf("default footprint = %d, want %d", opts.MaxFootprint, want)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Options{Source: hardware.SmallTest(), MaxFootprint: 64 << 10}); err != context.Canceled {
		t.Fatalf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestRunRejectsInvalidSource(t *testing.T) {
	if _, err := Run(context.Background(), Options{Source: &hardware.Hierarchy{}}); err == nil {
		t.Fatal("Run accepted an empty hierarchy")
	}
}

func TestRunRejectsNegativeFootprint(t *testing.T) {
	// A negative footprint must error, not reach make([]byte, n) in the
	// host prober.
	if _, err := Run(context.Background(), Options{MaxFootprint: -1}); err == nil {
		t.Fatal("Run accepted a negative footprint")
	}
}
