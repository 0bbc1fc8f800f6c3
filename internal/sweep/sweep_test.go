package sweep

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cachemodel"
	"repro/internal/cost"
	"repro/internal/hardware"
	"repro/internal/pattern"
	"repro/internal/region"
	"repro/internal/workload"
)

// quickSortShape mirrors engine.QuickSortPattern's recursive structure:
// the sweep's main dedup beneficiary.
func quickSortShape(r *region.Region, pruneBytes int64) pattern.Pattern {
	a, b := r.Halves()
	p := pattern.Seq{pattern.Conc{pattern.STrav{R: a}, pattern.STrav{R: b}}}
	if a.Size() > pruneBytes {
		p = append(p, quickSortShape(a, pruneBytes), quickSortShape(b, pruneBytes))
	}
	return p
}

// randGridPoints draws a randomized operator × size grid.
func randGridPoints(rng *workload.RNG) []Point {
	var pts []Point
	sizes := []int64{32 << 10, 128 << 10, 512 << 10}
	for _, sz := range sizes {
		n := sz / 8
		u := region.New("U", n, 8)
		v := region.New("V", n, 8)
		pts = append(pts,
			Point{Key: fmt.Sprintf("scan/%d", sz), Pattern: pattern.STrav{R: u}},
			Point{Key: fmt.Sprintf("sort/%d", sz), Pattern: quickSortShape(region.New("S", n, 8), 16<<10)},
			Point{Key: fmt.Sprintf("join/%d", sz), Pattern: pattern.Conc{
				pattern.STrav{R: u}, pattern.STrav{R: v},
				pattern.RAcc{R: region.New("H", n, 16), Count: n},
			}},
			Point{Key: fmt.Sprintf("rep/%d", sz), Pattern: pattern.Seq{
				pattern.RSTrav{R: u, Repeats: 2 + rng.Intn(3), Dir: pattern.Bi},
				pattern.RRTrav{R: v, Repeats: 2},
				pattern.Nest{R: u, M: 16, Inner: pattern.InnerSTrav, Order: pattern.OrderUni},
			}},
		)
	}
	return pts
}

// TestSweepMatchesPointLoop pins the sweep path to the point-at-a-time
// loop, bit for bit: predicted times against a per-point
// cost.Model.Evaluate (fresh compile per point), measured times
// against a per-point fresh cachemodel Pricer, at several parallelism
// levels including repeated warm runs.
func TestSweepMatchesPointLoop(t *testing.T) {
	rng := workload.NewRNG(20260808)
	pts := randGridPoints(rng)
	grid, err := Prepare(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*hardware.Hierarchy{hardware.Origin2000(), hardware.ModernX86()} {
		model := cost.MustNew(h)
		ana, err := cachemodel.New(h)
		if err != nil {
			t.Fatal(err)
		}
		wantPred := make([]float64, len(pts))
		wantMeas := make([]float64, len(pts))
		for i, pt := range pts {
			res, err := model.Evaluate(pt.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			wantPred[i] = res.MemoryTimeNS()
			prep, err := cachemodel.Prepare(pt.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			wantMeas[i] = ana.NewPricer().Price(prep).MemoryTimeNS()
		}
		s, err := grid.On(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7, 0} {
			for run := 0; run < 2; run++ { // cold memo, then warm
				got, err := s.Run(context.Background(), Options{Workers: workers, Predict: true, Price: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := range pts {
					if got[i].Key != pts[i].Key {
						t.Fatalf("%s workers=%d: result %d keyed %q, want %q", h.Name, workers, i, got[i].Key, pts[i].Key)
					}
					if math.Float64bits(got[i].PredictedNS) != math.Float64bits(wantPred[i]) {
						t.Fatalf("%s workers=%d run=%d %s: predicted %v != point loop %v",
							h.Name, workers, run, pts[i].Key, got[i].PredictedNS, wantPred[i])
					}
					if math.Float64bits(got[i].MeasuredNS) != math.Float64bits(wantMeas[i]) {
						t.Fatalf("%s workers=%d run=%d %s: measured %v != point loop %v",
							h.Name, workers, run, pts[i].Key, got[i].MeasuredNS, wantMeas[i])
					}
				}
			}
		}
	}
}

// TestSweepZeroAllocSteadyState pins the allocation contract of the
// sequential sweep: once buffers and memos are warm, a full Run
// allocates nothing.
func TestSweepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	grid, err := Prepare(randGridPoints(workload.NewRNG(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := grid.On(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Workers: 1, Predict: true, Price: true}
	if _, err := s.Run(ctx, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(ctx, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm sequential Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestSweepCancellation verifies a canceled context aborts the run.
func TestSweepCancellation(t *testing.T) {
	grid, err := Prepare(randGridPoints(workload.NewRNG(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := grid.On(hardware.Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, Options{Workers: 1, Predict: true}); err == nil {
		t.Fatal("Run on canceled context succeeded, want error")
	}
}

// TestPrepareRejectsInvalid verifies Prepare surfaces validation errors
// with the point's key.
func TestPrepareRejectsInvalid(t *testing.T) {
	_, err := Prepare([]Point{{Key: "bad", Pattern: pattern.Seq{}}})
	if err == nil {
		t.Fatal("Prepare accepted an invalid pattern")
	}
}
