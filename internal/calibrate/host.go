package calibrate

import (
	"runtime"
	"time"
)

// hostProber runs the calibration sweeps against the host machine's real
// memory with wall-clock timing. Under Go this is inherently noisy —
// garbage collection, scheduling and the runtime's memory layout all
// perturb the measurements — which is exactly why this reproduction
// validates the cost model against a cache simulator instead. The host
// mode exists to mirror the paper's original tool.
type hostProber struct {
	buf  []byte
	max  int64
	rng  uint64
	sink byte
}

func newHostProber(maxFootprint int64) *hostProber {
	return &hostProber{buf: make([]byte, maxFootprint), max: maxFootprint, rng: 0x9e3779b97f4a7c15}
}

func (p *hostProber) maxFootprint() int64 { return p.max }

func (p *hostProber) cost(size, stride int64, rounds int, ord order) float64 {
	count := size / stride
	if count < 1 {
		return 0
	}
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
		state := p.rng
		for i := count - 1; i > 0; i-- {
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			j := int64((state * 0x2545F4914F6CDD1D) % uint64(i+1))
			idx[i], idx[j] = idx[j], idx[i]
		}
		p.rng = state
	}
	// Warm-up.
	var sink byte
	for _, off := range idx {
		sink += p.buf[off]
	}
	runtime.GC() // reduce the chance of a GC pause mid-measurement
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, off := range idx {
			sink += p.buf[off]
		}
	}
	elapsed := time.Since(start)
	p.sink = sink
	return float64(elapsed.Nanoseconds()) / float64(rounds) / float64(count)
}
