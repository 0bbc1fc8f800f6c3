package pattern

import (
	"strings"
	"testing"

	"repro/internal/region"
)

func TestStringRendering(t *testing.T) {
	u := region.New("U", 1000, 16)
	h := region.New("H", 2048, 16)
	cases := []struct {
		p    Pattern
		want string
	}{
		{STrav{R: u}, "s_trav(U)"},
		{STrav{R: u, U: 8}, "s_trav(U, u=8)"},
		{STrav{R: u, NoSeq: true}, "s_trav~(U)"},
		{RSTrav{R: u, Repeats: 5, Dir: Bi}, "rs_trav(5, bi, U)"},
		{RSTrav{R: u, Repeats: 2, Dir: Uni}, "rs_trav(2, uni, U)"},
		{RTrav{R: u}, "r_trav(U)"},
		{RRTrav{R: u, Repeats: 3}, "rr_trav(3, U)"},
		{RAcc{R: h, Count: 1000}, "r_acc(1000, H)"},
		{Nest{R: u, M: 8, Inner: InnerSTrav, Order: OrderRandom}, "nest(U, 8, s_trav(U_j), rnd)"},
		{Nest{R: u, M: 4, Inner: InnerRAcc, Count: 7, Order: OrderUni}, "nest(U, 4, r_acc(7, U_j), uni)"},
		{Seq{STrav{R: u}, RTrav{R: h}}, "s_trav(U) (+) r_trav(H)"},
		{Conc{STrav{R: u}, RAcc{R: h, Count: 10}}, "s_trav(U) (.) r_acc(10, H)"},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestCompoundNesting(t *testing.T) {
	u := region.New("U", 10, 8)
	v := region.New("V", 10, 8)
	p := Seq{
		Conc{STrav{R: u}, STrav{R: v}},
		STrav{R: u},
	}
	s := p.String()
	if !strings.Contains(s, "(.)") || !strings.Contains(s, "(+)") {
		t.Errorf("compound rendering missing operators: %q", s)
	}
	// A Seq nested inside another compound gets brackets.
	q := Conc{Seq{STrav{R: u}, STrav{R: v}}, STrav{R: u}}
	if !strings.Contains(q.String(), "[") {
		t.Errorf("nested Seq not bracketed: %q", q.String())
	}
}

func TestUsed(t *testing.T) {
	u := region.New("U", 10, 16)
	if Used(0, u) != 16 {
		t.Error("Used(0) should default to width")
	}
	if Used(8, u) != 8 {
		t.Error("Used(8) should stay 8")
	}
	if Used(99, u) != 16 {
		t.Error("Used beyond width should clamp to width")
	}
}

// TestUsedResolution walks every branch of Used: unset, negative, partial,
// exact and oversized bytes-used values.
func TestUsedResolution(t *testing.T) {
	u := region.New("U", 10, 16)
	for _, tc := range []struct{ u, want int64 }{
		{0, 16},   // unset: full width
		{-3, 16},  // negative: full width
		{8, 8},    // partial use
		{16, 16},  // exact
		{100, 16}, // oversized: clamped to width
	} {
		if got := Used(tc.u, u); got != tc.want {
			t.Errorf("Used(%d, U) = %d, want %d", tc.u, got, tc.want)
		}
	}
}

func TestRegionsCollection(t *testing.T) {
	u := region.New("U", 10, 8)
	v := region.New("V", 10, 8)
	w := region.New("W", 10, 8)
	p := Seq{
		Conc{STrav{R: u}, STrav{R: v}},
		Conc{STrav{R: u}, STrav{R: w}},
	}
	rs := p.Regions()
	if len(rs) != 3 {
		t.Fatalf("Regions() returned %d, want 3 distinct", len(rs))
	}
	if rs[0] != u || rs[1] != v || rs[2] != w {
		t.Error("Regions() not in first-appearance order")
	}
}

func TestValidateAcceptsGoodPatterns(t *testing.T) {
	u := region.New("U", 100, 16)
	good := []Pattern{
		STrav{R: u},
		STrav{R: u, U: 8},
		RSTrav{R: u, Repeats: 3, Dir: Bi},
		RTrav{R: u},
		RRTrav{R: u, Repeats: 2},
		RAcc{R: u, Count: 50},
		Nest{R: u, M: 4, Inner: InnerSTrav, Order: OrderRandom},
		Nest{R: u, M: 4, Inner: InnerRAcc, Count: 3, Order: OrderBi},
		Seq{STrav{R: u}, RTrav{R: u}},
		Conc{STrav{R: u}, RAcc{R: u, Count: 10}},
	}
	for _, p := range good {
		if err := Validate(p); err != nil {
			t.Errorf("Validate(%s) = %v", p, err)
		}
	}
}

func TestValidateRejectsBadPatterns(t *testing.T) {
	u := region.New("U", 100, 16)
	bad := []Pattern{
		STrav{R: nil},
		STrav{R: u, U: 17},
		STrav{R: u, U: -1},
		RSTrav{R: u, Repeats: 0},
		RRTrav{R: u, Repeats: -2},
		RAcc{R: u, Count: 0},
		Nest{R: u, M: 0, Inner: InnerSTrav},
		Nest{R: u, M: 4, Inner: InnerRAcc, Count: 0},
		Seq{},
		Conc{},
		Seq{STrav{R: nil}},
		Conc{RAcc{R: u, Count: -1}},
	}
	for _, p := range bad {
		if err := Validate(p); err == nil {
			t.Errorf("Validate accepted bad pattern %#v", p)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if Uni.String() != "uni" || Bi.String() != "bi" {
		t.Error("Direction strings wrong")
	}
	if OrderRandom.String() != "rnd" || OrderUni.String() != "uni" || OrderBi.String() != "bi" {
		t.Error("Order strings wrong")
	}
	if InnerSTrav.String() != "s_trav" || InnerRTrav.String() != "r_trav" || InnerRAcc.String() != "r_acc" {
		t.Error("InnerKind strings wrong")
	}
}
