// Package hardware implements the unified hardware model of Manegold,
// Boncz and Kersten (2002): a computer's memory system is described as a
// cascading hierarchy of N cache levels (including TLBs), each
// characterized by a small set of parameters (the paper's Table 1).
//
// Levels are ordered from the CPU outwards: index 0 is the level closest
// to the CPU that the model charges explicitly (the paper folds L1 access
// latency into CPU cost and charges L1 *misses*, i.e. L2 accesses, and so
// on). Main memory (or, by analogy, disk) is the backing store of the last
// level.
//
// The dualism the paper exploits is that an access to level i+1 is caused
// by a miss on level i. We therefore store, per level i, the *miss*
// latency and *miss* bandwidth: the cost of fetching one line of level i
// from level i+1.
package hardware

import (
	"errors"
	"fmt"
	"strings"
)

// AccessKind discriminates the two access regimes the paper models.
// Sequential access can exploit EDO/prefetch-style excess bandwidth;
// random access pays the full per-line latency.
type AccessKind int

const (
	// Sequential marks accesses that are part of a forward unit-stride run.
	Sequential AccessKind = iota
	// Random marks all other accesses.
	Random
)

// String returns "seq" or "rnd".
func (k AccessKind) String() string {
	if k == Sequential {
		return "seq"
	}
	return "rnd"
}

// Level describes one cache level (the paper's Table 1). A TLB is modeled
// as a cache whose line size is the memory-page size and whose capacity is
// entries*pagesize; for TLBs sequential and random miss latency coincide.
type Level struct {
	// Name identifies the level ("L1", "L2", "TLB", ...).
	Name string
	// Capacity C_i is the total size in bytes.
	Capacity int64
	// LineSize Z_i (the paper's B_i) is the size of one cache line in bytes.
	LineSize int64
	// Associativity A_i is the number of ways; 1 means direct-mapped,
	// Lines() means fully associative. 0 is treated as fully associative.
	Associativity int
	// SeqMissLatency l^s_i is the time (ns) to resolve one miss under
	// sequential access.
	SeqMissLatency float64
	// RndMissLatency l^r_i is the time (ns) to resolve one miss under
	// random access.
	RndMissLatency float64
	// TLB marks translation-lookaside-buffer levels. TLB misses do not
	// transfer data; bandwidth is meaningless for them.
	TLB bool
}

// Lines returns #_i = C_i / Z_i, the number of cache lines at this level.
func (l Level) Lines() int64 {
	if l.LineSize <= 0 {
		return 0
	}
	return l.Capacity / l.LineSize
}

// Sets returns the number of associative sets: Lines()/Associativity.
func (l Level) Sets() int64 {
	a := l.Ways()
	if a <= 0 {
		return 0
	}
	return l.Lines() / int64(a)
}

// Ways returns the effective associativity: Associativity, or Lines() when
// Associativity is 0 (fully associative).
func (l Level) Ways() int {
	if l.Associativity <= 0 {
		return int(l.Lines())
	}
	return l.Associativity
}

// FullyAssociative reports whether every line can be placed anywhere.
func (l Level) FullyAssociative() bool {
	return int64(l.Ways()) >= l.Lines()
}

// MissLatency returns the per-miss latency in nanoseconds for the given
// access kind.
func (l Level) MissLatency(k AccessKind) float64 {
	if k == Sequential {
		return l.SeqMissLatency
	}
	return l.RndMissLatency
}

// SeqMissBandwidth returns b^s_i = Z_i / l^s_i in bytes per nanosecond
// (equivalently GB/s). It returns 0 for TLB levels.
func (l Level) SeqMissBandwidth() float64 {
	if l.TLB || l.SeqMissLatency <= 0 {
		return 0
	}
	return float64(l.LineSize) / l.SeqMissLatency
}

// RndMissBandwidth returns b^r_i = Z_i / l^r_i in bytes per nanosecond.
// It returns 0 for TLB levels.
func (l Level) RndMissBandwidth() float64 {
	if l.TLB || l.RndMissLatency <= 0 {
		return 0
	}
	return float64(l.LineSize) / l.RndMissLatency
}

// Validate reports whether the level parameters are internally
// consistent, including the geometry preconditions both measurement
// backends rely on: a power-of-two line size, ways dividing the line
// count, and a power-of-two set count. A level that passes Validate is
// guaranteed to be accepted by cachesim.New and cachemodel.New, so a
// profile registered at runtime cannot crash a later sweep.
func (l Level) Validate() error {
	switch {
	case l.Name == "":
		return errors.New("hardware: level has empty name")
	case l.Capacity <= 0:
		return fmt.Errorf("hardware: level %s: capacity must be positive, got %d", l.Name, l.Capacity)
	case l.LineSize <= 0:
		return fmt.Errorf("hardware: level %s: line size must be positive, got %d", l.Name, l.LineSize)
	case l.Capacity%l.LineSize != 0:
		return fmt.Errorf("hardware: level %s: capacity %d not a multiple of line size %d", l.Name, l.Capacity, l.LineSize)
	case l.Associativity < 0:
		return fmt.Errorf("hardware: level %s: negative associativity %d", l.Name, l.Associativity)
	case l.LineSize&(l.LineSize-1) != 0:
		return fmt.Errorf("hardware: level %s: line size %d not a power of two (the simulator and the analytical model index lines by bit masks)", l.Name, l.LineSize)
	case l.Associativity > 0 && l.Lines()%int64(l.Associativity) != 0:
		return fmt.Errorf("hardware: level %s: %d lines not divisible by associativity %d", l.Name, l.Lines(), l.Associativity)
	case l.Sets()&(l.Sets()-1) != 0:
		return fmt.Errorf("hardware: level %s: set count %d (%d lines / %d ways) not a power of two", l.Name, l.Sets(), l.Lines(), l.Ways())
	case l.SeqMissLatency < 0 || l.RndMissLatency < 0:
		return fmt.Errorf("hardware: level %s: negative latency", l.Name)
	case l.RndMissLatency < l.SeqMissLatency:
		return fmt.Errorf("hardware: level %s: random miss latency %.2f below sequential %.2f", l.Name, l.RndMissLatency, l.SeqMissLatency)
	}
	return nil
}

// Hierarchy is a cascading sequence of cache levels ordered from the CPU
// outwards, plus the CPU clock needed to convert cycles to time.
type Hierarchy struct {
	// Name identifies the machine ("SGI Origin2000", ...).
	Name string
	// Levels holds the cache levels, closest to the CPU first. TLB levels
	// may appear anywhere; by convention they follow the data caches.
	Levels []Level
	// ClockNS is the duration of one CPU cycle in nanoseconds.
	ClockNS float64
}

// Validate checks every level and the inter-level monotonicity the model
// assumes (data-cache capacities and line sizes non-decreasing outwards).
func (h *Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return errors.New("hardware: hierarchy has no levels")
	}
	if h.ClockNS < 0 {
		return fmt.Errorf("hardware: negative clock %f", h.ClockNS)
	}
	var prev *Level
	for i := range h.Levels {
		l := &h.Levels[i]
		if err := l.Validate(); err != nil {
			return err
		}
		if l.TLB {
			continue
		}
		if prev != nil {
			if l.Capacity < prev.Capacity {
				return fmt.Errorf("hardware: %s capacity %d smaller than inner level %s capacity %d",
					l.Name, l.Capacity, prev.Name, prev.Capacity)
			}
			if l.LineSize < prev.LineSize {
				return fmt.Errorf("hardware: %s line size %d smaller than inner level %s line size %d",
					l.Name, l.LineSize, prev.Name, prev.LineSize)
			}
		}
		prev = l
	}
	return nil
}

// NumLevels returns the number of modeled cache levels.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// Level returns the i-th level (0 = closest to CPU among modeled levels).
func (h *Hierarchy) Level(i int) Level { return h.Levels[i] }

// DataLevels returns the indices of non-TLB levels, innermost first.
func (h *Hierarchy) DataLevels() []int {
	var idx []int
	for i, l := range h.Levels {
		if !l.TLB {
			idx = append(idx, i)
		}
	}
	return idx
}

// TLBLevels returns the indices of TLB levels.
func (h *Hierarchy) TLBLevels() []int {
	var idx []int
	for i, l := range h.Levels {
		if l.TLB {
			idx = append(idx, i)
		}
	}
	return idx
}

// LevelByName returns the level with the given name.
func (h *Hierarchy) LevelByName(name string) (Level, bool) {
	for _, l := range h.Levels {
		if l.Name == name {
			return l, true
		}
	}
	return Level{}, false
}

// MinCapacity returns the smallest level capacity: the footprint at
// which quick-sort access patterns stop recursing
// (engine.QuickSortPattern's prune bound).
func (h *Hierarchy) MinCapacity() int64 {
	min := h.Levels[0].Capacity
	for _, l := range h.Levels {
		if l.Capacity < min {
			min = l.Capacity
		}
	}
	return min
}

// CyclesToNS converts CPU cycles to nanoseconds using the hierarchy clock.
func (h *Hierarchy) CyclesToNS(cycles float64) float64 { return cycles * h.ClockNS }

// Fingerprint returns a string that changes whenever any model-visible
// parameter of the hierarchy changes. Two hierarchies with equal
// fingerprints produce identical cost-model results, so the fingerprint
// can key caches of model evaluations across independently constructed
// profile values.
func (h *Hierarchy) Fingerprint() string {
	return fmt.Sprintf("%.9g|%+v", h.ClockNS, h.Levels)
}

// String renders the hierarchy in the shape of the paper's Table 3.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: %s (clock %.3f ns/cycle)\n", h.Name, h.ClockNS)
	fmt.Fprintf(&b, "%-6s %12s %8s %10s %6s %12s %12s\n",
		"level", "capacity", "line", "lines", "assoc", "seq-lat[ns]", "rnd-lat[ns]")
	for _, l := range h.Levels {
		assoc := fmt.Sprintf("%d", l.Ways())
		if l.FullyAssociative() {
			assoc = "full"
		}
		fmt.Fprintf(&b, "%-6s %12s %8d %10d %6s %12.1f %12.1f\n",
			l.Name, FormatBytes(l.Capacity), l.LineSize, l.Lines(), assoc,
			l.SeqMissLatency, l.RndMissLatency)
	}
	return b.String()
}

// FormatBytes renders a byte count with binary units (kB/MB/GB as the
// paper writes them).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dkB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
