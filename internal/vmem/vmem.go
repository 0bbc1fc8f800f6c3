// Package vmem provides a simulated flat virtual address space for the
// database engine to run in. Every load and store goes through an access
// hook, which lets a cache simulator (internal/cachesim) observe the
// exact address trace an algorithm generates — playing the role the MIPS
// R10000 hardware event counters play in the paper's Section 6
// evaluation.
//
// The address space is a single contiguous byte array with a bump
// allocator. Addresses are plain offsets; address 0 is valid. Allocations
// can be given an alignment so experiments can control where a region
// starts within a cache line (the paper's Figure 4/5 alignment study).
package vmem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated virtual address (a byte offset into the space).
type Addr int64

// Access describes one memory access for observers.
type Access struct {
	Addr  Addr
	Size  int64
	Write bool
}

// Observer receives every access performed on a Memory. Implementations
// must not retain the Access value beyond the call.
type Observer interface {
	OnAccess(Access)
}

// Memory is a simulated flat memory with a bump allocator.
// The zero value is unusable; use New.
type Memory struct {
	data     []byte
	brk      Addr
	observer Observer
}

// New creates a memory of the given size in bytes.
func New(size int64) *Memory {
	if size <= 0 {
		panic(fmt.Sprintf("vmem: non-positive size %d", size))
	}
	return &Memory{data: make([]byte, size)}
}

// SetObserver installs the access observer (nil disables observation).
func (m *Memory) SetObserver(o Observer) { m.observer = o }

// Alloc reserves size bytes aligned to align (a power of two, or <=1 for
// byte alignment) and returns the base address.
func (m *Memory) Alloc(size, align int64) Addr {
	if size < 0 {
		panic(fmt.Sprintf("vmem: negative allocation %d", size))
	}
	base := m.brk
	if align > 1 {
		if align&(align-1) != 0 {
			panic(fmt.Sprintf("vmem: alignment %d not a power of two", align))
		}
		base = (base + Addr(align) - 1) &^ (Addr(align) - 1)
	}
	if int64(base)+size > int64(len(m.data)) {
		panic(fmt.Sprintf("vmem: out of memory: need %d at %d, have %d", size, base, len(m.data)))
	}
	m.brk = base + Addr(size)
	return base
}

// AllocOffset reserves size bytes such that the returned address is
// congruent to offset modulo align. It is used by alignment experiments
// to place a region at a chosen position within a cache line.
func (m *Memory) AllocOffset(size, align, offset int64) Addr {
	if align <= 1 {
		return m.Alloc(size, 1)
	}
	base := m.Alloc(size+align, align)
	return base + Addr(offset%align)
}

func (m *Memory) observe(addr Addr, size int64, write bool) {
	if m.observer != nil {
		m.observer.OnAccess(Access{Addr: addr, Size: size, Write: write})
	}
}

func (m *Memory) check(addr Addr, size int64) {
	if addr < 0 || int64(addr)+size > int64(len(m.data)) {
		panic(fmt.Sprintf("vmem: access [%d,%d) out of bounds (size %d)", addr, int64(addr)+size, len(m.data)))
	}
}

// Load64 reads a little-endian uint64.
func (m *Memory) Load64(addr Addr) uint64 {
	m.check(addr, 8)
	m.observe(addr, 8, false)
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// Store64 writes a little-endian uint64.
func (m *Memory) Store64(addr Addr, v uint64) {
	m.check(addr, 8)
	m.observe(addr, 8, true)
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// Touch observes a read of size bytes at addr without copying data. It is
// what pattern drivers use when only the access trace matters.
func (m *Memory) Touch(addr Addr, size int64) {
	m.check(addr, size)
	m.observe(addr, size, false)
}

// TouchWrite observes a write of size bytes at addr without copying data.
func (m *Memory) TouchWrite(addr Addr, size int64) {
	m.check(addr, size)
	m.observe(addr, size, true)
}

// Raw exposes the backing bytes for checked non-observed bulk setup
// (e.g. workload generation before an experiment starts measuring).
func (m *Memory) Raw(addr Addr, size int64) []byte {
	m.check(addr, size)
	return m.data[addr : int64(addr)+size]
}
