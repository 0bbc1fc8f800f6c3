// Package cachesim simulates a hierarchical memory system: N levels of
// set-associative LRU caches (data caches and TLBs) fed by the address
// trace of a program running in simulated memory (internal/vmem).
//
// It implements the measurement side of the paper's Section 6
// evaluation: where the paper reads the MIPS R10000's hardware event
// counters to validate the cost model, this simulator counts hits and
// misses per level and classifies each miss as sequential or random
// using a stream detector that mirrors the Section 2 EDO/prefetch
// discussion (consecutive line fetches enjoy sequential latency;
// scattered fetches pay random latency).
//
// Data-cache levels form a chain: an access only reaches level i+1 when
// it misses level i. TLB levels are observed in parallel: every program
// access triggers an address translation.
package cachesim

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/hardware"
	"repro/internal/vmem"
)

// Stats aggregates counters for one cache level.
type Stats struct {
	Accesses  uint64 // line-granule lookups that reached this level
	Hits      uint64
	SeqMisses uint64 // misses on a detected forward unit-stride line stream
	RndMisses uint64 // all other misses
}

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.SeqMisses + s.RndMisses }

// HitRate returns the fraction of lookups served from the cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// level is one simulated set-associative cache.
type level struct {
	spec      hardware.Level
	lineShift uint
	setMask   uint64
	ways      int
	// tags[set*ways+way] holds the line address (addr >> lineShift) + 1;
	// 0 means invalid.
	tags []uint64
	// stamp[set*ways+way] is the LRU timestamp.
	stamp []uint64
	clock uint64

	// stream detector: next expected line address per stream slot, 0 = free.
	streams     []uint64
	streamStamp []uint64

	stats Stats
}

func newLevel(spec hardware.Level, streamSlots int) *level {
	lines := spec.Lines()
	ways := spec.Ways()
	sets := lines / int64(ways)
	// hardware.Level.Validate rejects all of these before a level can
	// reach the simulator (New validates the whole hierarchy first), so
	// tripping one is an internal invariant violation, not a user error.
	if lines <= 0 || sets <= 0 {
		panic(fmt.Sprintf("cachesim: invariant violated: level %s has no lines despite validation", spec.Name))
	}
	if spec.LineSize&(spec.LineSize-1) != 0 {
		panic(fmt.Sprintf("cachesim: invariant violated: level %s line size %d not a power of two despite validation", spec.Name, spec.LineSize))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: invariant violated: level %s set count %d not a power of two despite validation", spec.Name, sets))
	}
	return &level{
		spec:        spec,
		lineShift:   uint(bits.TrailingZeros64(uint64(spec.LineSize))),
		setMask:     uint64(sets - 1),
		ways:        ways,
		tags:        make([]uint64, lines),
		stamp:       make([]uint64, lines),
		streams:     make([]uint64, streamSlots),
		streamStamp: make([]uint64, streamSlots),
	}
}

// touch looks up the line containing lineAddr (already shifted); on a
// miss it installs the line (LRU within the set), classifies the miss,
// and reports true.
func (l *level) touch(lineAddr uint64) (missed bool) {
	l.clock++
	l.stats.Accesses++
	tag := lineAddr + 1
	set := (lineAddr & l.setMask) * uint64(l.ways)
	ways := uint64(l.ways)

	victim := set
	var victimStamp uint64 = ^uint64(0)
	for w := uint64(0); w < ways; w++ {
		i := set + w
		if l.tags[i] == tag {
			l.stamp[i] = l.clock
			l.stats.Hits++
			return false
		}
		if l.stamp[i] < victimStamp {
			victimStamp = l.stamp[i]
			victim = i
		}
	}

	// Miss: classify via stream detector, then install.
	if l.matchStream(lineAddr) {
		l.stats.SeqMisses++
	} else {
		l.stats.RndMisses++
	}
	l.tags[victim] = tag
	l.stamp[victim] = l.clock
	return true
}

// matchStream reports whether lineAddr continues a known forward
// unit-stride stream of line fetches, updating the detector either way.
// Stream slots store the next expected line address plus one (0 = free).
func (l *level) matchStream(lineAddr uint64) bool {
	want := lineAddr + 1
	oldest := 0
	var oldestStamp uint64 = ^uint64(0)
	for i := range l.streams {
		if l.streams[i] == want {
			// This miss is exactly the line the stream expected next.
			l.streams[i] = want + 1
			l.streamStamp[i] = l.clock
			return true
		}
		if l.streamStamp[i] < oldestStamp {
			oldestStamp = l.streamStamp[i]
			oldest = i
		}
	}
	// New stream: predict the following line.
	l.streams[oldest] = want + 1
	l.streamStamp[oldest] = l.clock
	return false
}

// reset clears contents and counters but keeps the configuration.
func (l *level) reset() {
	for i := range l.tags {
		l.tags[i] = 0
		l.stamp[i] = 0
	}
	for i := range l.streams {
		l.streams[i] = 0
		l.streamStamp[i] = 0
	}
	l.clock = 0
	l.stats = Stats{}
}

// Simulator drives all levels of a hardware.Hierarchy from an address
// trace. It implements vmem.Observer.
type Simulator struct {
	hier   *hardware.Hierarchy
	levels []*level
	data   []*level // chain of data caches, innermost first
	tlbs   []*level // translation caches, observed in parallel
	frozen bool
}

// DefaultStreamSlots is the number of concurrent sequential streams the
// per-level detector tracks. Database operators in the paper use at most
// a handful of concurrent cursors; 16 is generous and mirrors hardware
// stream prefetchers.
const DefaultStreamSlots = 16

// New creates a simulator for the hierarchy. The hierarchy must validate
// and all line sizes and set counts must be powers of two.
func New(h *hardware.Hierarchy) *Simulator {
	if err := h.Validate(); err != nil {
		panic("cachesim: " + err.Error())
	}
	s := &Simulator{hier: h}
	for _, spec := range h.Levels {
		l := newLevel(spec, DefaultStreamSlots)
		s.levels = append(s.levels, l)
		if spec.TLB {
			s.tlbs = append(s.tlbs, l)
		} else {
			s.data = append(s.data, l)
		}
	}
	return s
}

// OnAccess feeds one program access into the hierarchy. A wide access
// that spans multiple lines touches each covered line once, matching the
// paper's "a miss loads a complete cache line" semantics. Lines that hit
// at a data level are filtered from the levels behind it; TLB levels
// translate every access.
func (s *Simulator) OnAccess(a vmem.Access) {
	if s.frozen || a.Size <= 0 {
		return
	}
	addr := uint64(a.Addr)
	last := addr + uint64(a.Size) - 1

	if len(s.data) > 0 {
		s.touchChain(0, addr, last)
	}
	for _, l := range s.tlbs {
		for line := addr >> l.lineShift; line <= last>>l.lineShift; line++ {
			l.touch(line)
		}
	}
}

// touchChain touches the byte range [addr,last] at data level i and
// recursively forwards the missed portions to level i+1.
func (s *Simulator) touchChain(i int, addr, last uint64) {
	l := s.data[i]
	lineSize := uint64(l.spec.LineSize)
	for line := addr >> l.lineShift; line <= last>>l.lineShift; line++ {
		if l.touch(line) && i+1 < len(s.data) {
			base := line << l.lineShift
			s.touchChain(i+1, base, base+lineSize-1)
		}
	}
}

// Freeze stops counting (setup/teardown phases); Thaw resumes.
func (s *Simulator) Freeze() { s.frozen = true }

// Thaw resumes counting after Freeze.
func (s *Simulator) Thaw() { s.frozen = false }

// Reset clears all cache contents and counters.
func (s *Simulator) Reset() {
	for _, l := range s.levels {
		l.reset()
	}
}

// ResetStats clears counters but keeps cache contents, so a measurement
// can start against a warm cache.
func (s *Simulator) ResetStats() {
	for _, l := range s.levels {
		l.stats = Stats{}
	}
}

// Stats returns the counters of level i (hierarchy order).
func (s *Simulator) Stats(i int) Stats { return s.levels[i].stats }

// StatsByName returns the counters for the named level.
func (s *Simulator) StatsByName(name string) (Stats, bool) {
	for _, l := range s.levels {
		if l.spec.Name == name {
			return l.stats, true
		}
	}
	return Stats{}, false
}

// AllStats returns the counters for all levels in hierarchy order.
func (s *Simulator) AllStats() []Stats {
	out := make([]Stats, len(s.levels))
	for i, l := range s.levels {
		out[i] = l.stats
	}
	return out
}

// MemoryTimeNS scores the counted misses with the hierarchy's latencies
// (the measurement-side analogue of the model's Eq. 3.1).
func (s *Simulator) MemoryTimeNS() float64 {
	var t float64
	for _, l := range s.levels {
		t += float64(l.stats.SeqMisses)*l.spec.SeqMissLatency +
			float64(l.stats.RndMisses)*l.spec.RndMissLatency
	}
	return t
}

// String summarizes all counters.
func (s *Simulator) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n", "level", "accesses", "hits", "seq-miss", "rnd-miss")
	for _, l := range s.levels {
		fmt.Fprintf(&b, "%-6s %12d %12d %12d %12d\n",
			l.spec.Name, l.stats.Accesses, l.stats.Hits, l.stats.SeqMisses, l.stats.RndMisses)
	}
	return b.String()
}
