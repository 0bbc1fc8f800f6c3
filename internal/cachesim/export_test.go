package cachesim

import "repro/internal/vmem"

// Frozen reports whether the simulator is currently ignoring accesses.
func (s *Simulator) Frozen() bool { return s.frozen }

// Contains reports whether the line holding addr is currently resident at
// level i.
func (s *Simulator) Contains(i int, addr vmem.Addr) bool {
	l := s.levels[i]
	lineAddr := uint64(addr) >> l.lineShift
	tag := lineAddr + 1
	set := (lineAddr & l.setMask) * uint64(l.ways)
	for w := uint64(0); w < uint64(l.ways); w++ {
		if l.tags[set+w] == tag {
			return true
		}
	}
	return false
}

// ResidentLines returns how many valid lines level i currently holds.
func (s *Simulator) ResidentLines(i int) int {
	n := 0
	for _, t := range s.levels[i].tags {
		if t != 0 {
			n++
		}
	}
	return n
}
