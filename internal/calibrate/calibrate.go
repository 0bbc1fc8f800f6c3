// Package calibrate reproduces the paper's Calibrator: a program that
// discovers the cache hierarchy's characteristic parameters (capacity,
// line size, sequential and random miss latency per level) by running
// stride/footprint micro-benchmarks and observing access-cost knees.
//
// Two modes are provided:
//
//   - Simulated: the sweeps run against a cachesim-backed simulated
//     memory, with "time" taken from the simulator's latency-scored miss
//     counters. This is exact and deterministic, and proves the
//     calibration method itself. TLBs are discovered as ordinary cache
//     levels whose line size is the page size — precisely the paper's
//     unified treatment.
//
//   - Host (Run with a nil Source): the same sweeps against real memory
//     with wall-clock timing. Under a garbage-collected runtime this is
//     noisy (the reason this reproduction validates against a
//     simulator); results are best-effort estimates.
//
// Measurement orders exploit LRU determinism: repeated same-direction
// sweeps over a footprint larger than a cache get zero reuse, so every
// access misses (rate exactly 1). Descending order additionally defeats
// forward stream detection/prefetch, isolating the *random* miss
// latency; ascending order at stride = line size fetches lines
// consecutively, isolating the *sequential* latency.
package calibrate

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/hardware"
	"repro/internal/vmem"
	"repro/internal/workload"
)

// Options configures a calibration run.
type Options struct {
	// Source selects the machine: a non-nil hierarchy is calibrated
	// through a cache simulator (exact, deterministic); nil means the
	// host machine is calibrated with wall-clock timing (noisy).
	Source *hardware.Hierarchy
	// MaxFootprint bounds the sweep sizes in bytes. It must exceed the
	// outermost capacity of interest (2x or more recommended). 0 means
	// 4x the outermost source capacity in simulated mode and 64 MB in
	// host mode.
	MaxFootprint int64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.MaxFootprint == 0 {
		if o.Source != nil {
			for _, l := range o.Source.Levels {
				if 4*l.Capacity > o.MaxFootprint {
					o.MaxFootprint = 4 * l.Capacity
				}
			}
		} else {
			o.MaxFootprint = 64 << 20
		}
	}
	return o
}

// Run performs the three-phase discovery described by opts. It is the
// context-aware entry point behind Simulated and the host mode: cancellation is
// checked between measurement sweeps (the unit of work), so a calibration
// launched by a server request stops promptly when the caller gives up.
// On cancellation the context's error is returned and the partial result
// is discarded.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.MaxFootprint < 0 {
		return nil, fmt.Errorf("calibrate: negative max footprint %d", opts.MaxFootprint)
	}
	opts = opts.withDefaults()
	var p prober
	if opts.Source != nil {
		if err := opts.Source.Validate(); err != nil {
			return nil, fmt.Errorf("calibrate: invalid source hierarchy: %w", err)
		}
		p = newSimProber(opts.Source, opts.MaxFootprint)
	} else {
		p = newHostProber(opts.MaxFootprint)
	}
	return discover(ctx, p)
}

// LevelEstimate is the calibrator's estimate for one discovered level.
type LevelEstimate struct {
	Capacity   int64
	LineSize   int64
	SeqLatency float64 // ns per miss under sequential access
	RndLatency float64 // ns per miss under random access
}

// Result holds the discovered hierarchy parameters, innermost first.
type Result struct {
	Levels []LevelEstimate
}

// String renders the result in the shape of the paper's Table 3.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %8s %14s %14s\n", "level", "capacity", "line", "seq-lat[ns]", "rnd-lat[ns]")
	for i, l := range r.Levels {
		fmt.Fprintf(&b, "%-8s %12s %8d %14.1f %14.1f\n",
			fmt.Sprintf("level-%d", i+1), hardware.FormatBytes(l.Capacity), l.LineSize,
			l.SeqLatency, l.RndLatency)
	}
	return b.String()
}

// Hierarchy converts the estimates into a hardware.Hierarchy usable by
// the cost model (associativity defaults to fully associative; the miss
// formulas do not use it).
func (r *Result) Hierarchy(name string, clockNS float64) *hardware.Hierarchy {
	h := &hardware.Hierarchy{Name: name, ClockNS: clockNS}
	for i, l := range r.Levels {
		// A level whose "line" exceeds a later level's line size can
		// only be a TLB: data-cache lines grow outwards, page granules
		// do not fit the chain.
		tlb := false
		for _, outer := range r.Levels[i+1:] {
			if l.LineSize > outer.LineSize {
				tlb = true
			}
		}
		h.Levels = append(h.Levels, hardware.Level{
			Name:           fmt.Sprintf("level-%d", i+1),
			Capacity:       l.Capacity,
			LineSize:       l.LineSize,
			Associativity:  0,
			SeqMissLatency: l.SeqLatency,
			RndMissLatency: l.RndLatency,
			TLB:            tlb,
		})
	}
	return h
}

// order selects the visit order of a calibration sweep.
type order int

const (
	ascending  order = iota // forward unit steps: sequential latency
	descending              // backward unit steps: random latency, rate 1
	shuffled                // random permutation: steady-state rates
)

// prober abstracts "run a strided sweep and report cost per access" so
// the simulated and host calibrators share the discovery logic.
type prober interface {
	// cost returns the average access cost (ns) of `rounds` sweeps over
	// a footprint of `size` bytes with the given stride and visit order.
	// A warm-up sweep precedes measurement.
	cost(size, stride int64, rounds int, ord order) float64
	// maxFootprint is the largest affordable sweep size.
	maxFootprint() int64
}

// sweepIndices builds the visit offsets for one sweep.
func sweepIndices(size, stride int64, ord order, rng *workload.RNG) []int64 {
	count := size / stride
	idx := make([]int64, count)
	for i := range idx {
		idx[i] = int64(i) * stride
	}
	switch ord {
	case descending:
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
		}
	case shuffled:
		perm := rng.Permutation(count)
		out := make([]int64, count)
		for i, j := range perm {
			out[i] = idx[j]
		}
		idx = out
	}
	return idx
}

// simProber drives sweeps through a cache simulator.
type simProber struct {
	mem *vmem.Memory
	sim *cachesim.Simulator
	rng *workload.RNG
	max int64
}

func newSimProber(h *hardware.Hierarchy, maxFootprint int64) *simProber {
	mem := vmem.New(maxFootprint + (1 << 16))
	sim := cachesim.New(h)
	mem.SetObserver(sim)
	return &simProber{mem: mem, sim: sim, rng: workload.NewRNG(12345), max: maxFootprint}
}

func (p *simProber) maxFootprint() int64 { return p.max }

func (p *simProber) cost(size, stride int64, rounds int, ord order) float64 {
	idx := sweepIndices(size, stride, ord, p.rng)
	if len(idx) == 0 {
		return 0
	}
	p.sim.Reset()
	// Warm-up sweep.
	for _, off := range idx {
		p.mem.Touch(vmem.Addr(off), 1)
	}
	p.sim.ResetStats()
	before := p.sim.MemoryTimeNS()
	for r := 0; r < rounds; r++ {
		for _, off := range idx {
			p.mem.Touch(vmem.Addr(off), 1)
		}
	}
	total := p.sim.MemoryTimeNS() - before
	return total / float64(rounds) / float64(len(idx))
}

// Simulated runs the calibration sweeps against a simulator of h and
// returns the discovered parameters. maxFootprint bounds the sweep sizes
// and must exceed the outermost capacity (2x or more recommended). It is
// Run without cancellation.
func Simulated(h *hardware.Hierarchy, maxFootprint int64) *Result {
	res, _ := discover(context.Background(), newSimProber(h, maxFootprint))
	return res
}

// innerRndAt returns the per-access cost of the already-discovered inner
// levels during a descending sweep at the given stride: every level
// misses each of its line fetches (rate 1) at random latency, on the
// fraction min(1, stride/B_j) of accesses.
func innerRndAt(levels []LevelEstimate, stride int64) float64 {
	var sum float64
	for _, l := range levels {
		frac := 1.0
		if stride < l.LineSize {
			frac = float64(stride) / float64(l.LineSize)
		}
		sum += frac * l.RndLatency
	}
	return sum
}

// innerSeqAt is the ascending-order analogue: an inner level whose line
// is at least the stride sees consecutive line fetches (sequential
// latency); a level with smaller lines sees skipped lines (random).
func innerSeqAt(levels []LevelEstimate, stride int64) float64 {
	var sum float64
	for _, l := range levels {
		frac := 1.0
		lat := l.RndLatency
		if stride <= l.LineSize {
			lat = l.SeqLatency
			if stride < l.LineSize {
				frac = float64(stride) / float64(l.LineSize)
			}
		}
		sum += frac * lat
	}
	return sum
}

// discover runs the generic three-phase discovery on any prober. The
// context is checked before every measurement sweep — the unit of work —
// so cancellation latency is one sweep, not one calibration.
func discover(ctx context.Context, p prober) (*Result, error) {
	const rounds = 2
	// sweep wraps p.cost with the cancellation check.
	sweep := func(size, stride int64, ord order) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return p.cost(size, stride, rounds, ord), nil
	}
	// Stride for the capacity sweep: at most the innermost line size, so
	// every level's working set truly equals the footprint (larger
	// strides would skip pages of large-lined TLB levels and shift their
	// apparent capacity).
	const probeStride = int64(32)

	// Phase 1: capacity detection. Random access over a growing
	// footprint saturates smoothly per level (miss rate ≈ 1 − C/size),
	// so a level's onset shows as a jump in the cost *increment*: we
	// flag a capacity at S/2 whenever the increment at S is at least
	// double the previous increment (second-derivative test).
	type point struct {
		size int64
		cost float64
	}
	var curve []point
	for size := 2 * probeStride; size <= p.maxFootprint(); size *= 2 {
		c, err := sweep(size, probeStride, shuffled)
		if err != nil {
			return nil, err
		}
		curve = append(curve, point{size, c})
	}
	var capacities []int64
	prevDelta := 0.0
	for i := 1; i < len(curve); i++ {
		delta := curve[i].cost - curve[i-1].cost
		if delta > 2*prevDelta && delta > 0.5 {
			capacities = append(capacities, curve[i-1].size)
		}
		prevDelta = delta
	}

	res := &Result{}
	for i, c := range capacities {
		// Footprint that exceeds levels 1..i but fits level i+1.
		size := c * 2
		if i+1 < len(capacities) && size > capacities[i+1] {
			size = capacities[i+1]
		}
		if size > p.maxFootprint() {
			size = p.maxFootprint()
		}

		// Phase 2: line-size detection under descending order (pure
		// random latency, miss rate 1 for every exceeded level): this
		// level's residual cost — after subtracting the modeled inner
		// levels — grows proportionally to the stride until the stride
		// reaches the line size, then plateaus. The line size is the
		// smallest stride reaching the plateau.
		type rp struct {
			stride int64
			resid  float64
		}
		var resids []rp
		var maxResid float64
		for s := int64(8); s <= size/4; s *= 2 {
			c, err := sweep(size, s, descending)
			if err != nil {
				return nil, err
			}
			resid := c - innerRndAt(res.Levels, s)
			if resid < 0 {
				resid = 0
			}
			resids = append(resids, rp{s, resid})
			if resid > maxResid {
				maxResid = resid
			}
		}
		line := int64(8)
		for _, r := range resids {
			if r.resid >= 0.7*maxResid {
				line = r.stride
				break
			}
		}

		// Phase 3: latencies at stride = line size, where every access
		// misses levels 1..i exactly once per line fetch.
		cumRnd, err := sweep(size, line, descending)
		if err != nil {
			return nil, err
		}
		cumSeq, err := sweep(size, line, ascending)
		if err != nil {
			return nil, err
		}
		rnd := cumRnd - innerRndAt(res.Levels, line)
		seq := cumSeq - innerSeqAt(res.Levels, line)
		if seq < 0 {
			seq = 0
		}
		if rnd < seq {
			rnd = seq
		}
		res.Levels = append(res.Levels, LevelEstimate{
			Capacity:   c,
			LineSize:   line,
			SeqLatency: seq,
			RndLatency: rnd,
		})
	}
	return res, nil
}
