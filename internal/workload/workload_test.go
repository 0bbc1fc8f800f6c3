package workload

import (
	"testing"
	"testing/quick"
)

// memTable is a minimal Keyed implementation for tests.
type memTable struct {
	keys []uint64
}

func newMemTable(n int64) *memTable             { return &memTable{keys: make([]uint64, n)} }
func (t *memTable) N() int64                    { return int64(len(t.keys)) }
func (t *memTable) SetRawKey(i int64, v uint64) { t.keys[i] = v }

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed not remapped")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

// TestIntnUnbiased is the regression test for the modulo-bias bug.
// With n = 3·2⁶¹, the old `Uint64() % n` maps 8/3 of the 64-bit space
// onto [0, n): residues below 2⁶² are produced by three preimages and
// the rest by two, so P(v < 2⁶²) = 3/4 instead of the uniform
// 2⁶²/n = 2/3. Lemire rejection must land on 2/3; 10⁵ draws put the
// unbiased fraction within ±0.013 (≈9σ) of 2/3 while the biased value
// sits 0.083 away — the two outcomes cannot be confused.
func TestIntnUnbiased(t *testing.T) {
	const (
		n     = int64(3) << 61
		split = int64(1) << 62
		draws = 100000
	)
	r := NewRNG(12345)
	below := 0
	for i := 0; i < draws; i++ {
		if r.Intn(n) < split {
			below++
		}
	}
	frac := float64(below) / draws
	if frac < 0.653 || frac > 0.680 {
		t.Errorf("P(Intn(3<<61) < 1<<62) = %.4f, want ≈2/3 (modulo bias would give 3/4)", frac)
	}
}

// TestIntnPowerOfTwoMask pins the mask fast path: powers of two need no
// rejection loop and must still cover the full range.
func TestIntnPowerOfTwoMask(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Intn(8) covered only %d of 8 values in 1000 draws", len(seen))
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	f := func(seed uint64, na uint8) bool {
		n := int64(na)%200 + 1
		p := NewRNG(seed + 1).Permutation(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillPermutationCoversDomain(t *testing.T) {
	tab := newMemTable(256)
	FillPermutation(tab, NewRNG(5))
	seen := make([]bool, 256)
	for _, k := range tab.keys {
		if k >= 256 || seen[k] {
			t.Fatal("not a permutation")
		}
		seen[k] = true
	}
}

func TestFillSorted(t *testing.T) {
	tab := newMemTable(100)
	FillSorted(tab)
	for i, k := range tab.keys {
		if k != uint64(i) {
			t.Fatalf("key %d = %d", i, k)
		}
	}
}

func TestFillUniformSpread(t *testing.T) {
	tab := newMemTable(4096)
	FillUniform(tab, NewRNG(6))
	// Crude spread check: the top bit should be set about half the time.
	high := 0
	for _, k := range tab.keys {
		if k>>63 == 1 {
			high++
		}
	}
	if high < 1600 || high > 2500 {
		t.Errorf("top-bit count %d out of expected band", high)
	}
}
