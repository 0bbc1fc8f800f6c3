// Package workload generates deterministic test data for the experiment
// harness: key columns with controlled distributions, permutations, and
// seeded pseudo-randomness that does not depend on Go's global RNG, so
// every run of every experiment sees identical address traces. It
// supplies the uniform and 1:1-join relations of the paper's Section 6
// experiments (Figure 7) in reproducible form.
package workload

import "math/bits"

// Keyed is the minimal table surface the generators need: a tuple count
// and unobserved key writes (filling is setup, not measured trace).
// engine.Table satisfies it.
type Keyed interface {
	// N returns the tuple count.
	N() int64
	// SetRawKey writes the key of tuple i without observation.
	SetRawKey(i int64, v uint64)
}

// RNG is a small, fast, deterministic generator (xorshift64*), good
// enough for workload synthesis and permutation shuffles.
type RNG struct {
	state uint64
}

// NewRNG creates a generator from a non-zero seed (0 is mapped to 1).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int64 in [0, n), exactly uniformly.
// Lemire's multiply-shift rejection method: hi of the 128-bit product
// x·n is uniform over [0, n) once the low half clears the rejection
// threshold 2⁶⁴ mod n (a plain `Uint64() % n` over-weights the small
// residues for n not a power of two — modulo bias).
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		return int64(r.Uint64() & (un - 1))
	}
	threshold := -un % un // 2⁶⁴ mod n
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= threshold {
			return int64(hi)
		}
	}
}

// Permutation returns a pseudo-random permutation of [0, n).
func (r *RNG) Permutation(n int64) []int64 {
	p := make([]int64, n)
	for i := int64(0); i < n; i++ {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillUniform sets the keys of t to uniformly distributed values
// (unobserved; setup data, not part of the measured trace).
func FillUniform(t Keyed, rng *RNG) {
	n := t.N()
	for i := int64(0); i < n; i++ {
		t.SetRawKey(i, rng.Uint64())
	}
}

// FillPermutation sets the keys of t to a random permutation of 0..n-1:
// every key occurs exactly once (1:1 join workloads).
func FillPermutation(t Keyed, rng *RNG) {
	perm := rng.Permutation(t.N())
	for i, v := range perm {
		t.SetRawKey(int64(i), uint64(v))
	}
}

// FillSorted sets the keys of t to 0..n-1 in order (merge-join inputs).
func FillSorted(t Keyed) {
	n := t.N()
	for i := int64(0); i < n; i++ {
		t.SetRawKey(i, uint64(i))
	}
}
