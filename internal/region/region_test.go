package region

import (
	"testing"
	"testing/quick"
)

func TestDerivedValues(t *testing.T) {
	r := New("U", 1000, 16)
	if r.Size() != 16000 {
		t.Errorf("Size() = %d", r.Size())
	}
	if got := r.Lines(32); got != 500 {
		t.Errorf("Lines(32) = %d, want 500", got)
	}
	if got := r.Lines(64); got != 250 {
		t.Errorf("Lines(64) = %d, want 250", got)
	}
	if got := r.ItemsInCache(1024); got != 64 {
		t.Errorf("ItemsInCache(1024) = %d, want 64", got)
	}
}

func TestLinesRoundsUp(t *testing.T) {
	r := New("U", 3, 10) // 30 bytes
	if got := r.Lines(32); got != 1 {
		t.Errorf("Lines(32) = %d, want 1", got)
	}
	if got := r.Lines(16); got != 2 {
		t.Errorf("Lines(16) = %d, want 2", got)
	}
}

func TestSubSplitsEvenly(t *testing.T) {
	r := New("U", 10, 8)
	var total int64
	for j := int64(0); j < 4; j++ {
		s := r.Sub(j, 4)
		if s.W != r.W {
			t.Errorf("sub-region width %d != parent %d", s.W, r.W)
		}
		if s.Parent != r {
			t.Error("sub-region parent not set")
		}
		total += s.N
	}
	if total != r.N {
		t.Errorf("sub-region lengths sum to %d, want %d", total, r.N)
	}
	// 10 = 3+3+2+2
	if r.Sub(0, 4).N != 3 || r.Sub(3, 4).N != 2 {
		t.Errorf("uneven split wrong: %d, %d", r.Sub(0, 4).N, r.Sub(3, 4).N)
	}
}

// Sub-region names are part of every region's canonical identity, so
// they must stay exactly "<parent>_<j>", independent of m.
func TestSubNames(t *testing.T) {
	cases := []struct {
		parent string
		j, m   int64
		want   string
	}{
		{"U", 0, 2, "U_0"},
		{"U", 1, 2, "U_1"},
		{"V", 9, 10, "V_9"},
		{"U_1", 0, 2, "U_1_0"},
		{"H", 63, 64, "H_63"},
		{"R", 1234, 4096, "R_1234"},
		{"", 3, 4, "_3"},
	}
	for _, tc := range cases {
		if got := New(tc.parent, 1<<20, 8).Sub(tc.j, tc.m).Name; got != tc.want {
			t.Errorf("New(%q).Sub(%d, %d).Name = %q, want %q", tc.parent, tc.j, tc.m, got, tc.want)
		}
	}
}

func TestSubPropertyPartition(t *testing.T) {
	// Property: sub-region lengths always sum to the parent length and
	// differ by at most one.
	f := func(n uint16, m uint8) bool {
		nn := int64(n%5000) + 1
		mm := int64(m%64) + 1
		r := New("R", nn, 8)
		var sum, min, max int64
		min = 1 << 62
		for j := int64(0); j < mm; j++ {
			s := r.Sub(j, mm)
			sum += s.N
			if s.N < min {
				min = s.N
			}
			if s.N > max {
				max = s.N
			}
		}
		return sum == nn && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHalves(t *testing.T) {
	r := New("U", 9, 8)
	a, b := r.Halves()
	if a.N+b.N != 9 {
		t.Errorf("halves sum to %d", a.N+b.N)
	}
	if a.Parent != r || b.Parent != r {
		t.Error("halves must point to parent")
	}
}

func TestAncestors(t *testing.T) {
	r := New("U", 100, 8)
	a, _ := r.Halves()
	aa, _ := a.Halves()
	anc := aa.Ancestors()
	if len(anc) != 2 || anc[0] != a || anc[1] != r {
		t.Errorf("Ancestors() = %v", anc)
	}
	if len(r.Ancestors()) != 0 {
		t.Error("root region has ancestors")
	}
}

func TestSubSize(t *testing.T) {
	r := New("U", 10, 8)
	if got := r.SubSize(4); got != 2.5 {
		t.Errorf("SubSize(4) = %g, want 2.5", got)
	}
}

func TestString(t *testing.T) {
	r := New("U", 10, 8)
	if got := r.String(); got != "U[n=10,w=8]" {
		t.Errorf("String() = %q", got)
	}
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"negative n":    func() { New("U", -1, 8) },
		"zero width":    func() { New("U", 1, 0) },
		"bad sub index": func() { New("U", 10, 8).Sub(4, 4) },
		"zero sub m":    func() { New("U", 10, 8).Sub(0, 0) },
		"zero line":     func() { New("U", 10, 8).Lines(0) },
		"zero subsize":  func() { New("U", 10, 8).SubSize(0) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
