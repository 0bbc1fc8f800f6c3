package vmem

import "testing"

// observerFunc adapts a function to the Observer interface.
type observerFunc func(Access)

func (f observerFunc) OnAccess(a Access) { f(a) }

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(10, 1)
	if a != 0 {
		t.Errorf("first alloc at %d, want 0", a)
	}
	b := m.Alloc(8, 64)
	if b%64 != 0 {
		t.Errorf("aligned alloc at %d, want multiple of 64", b)
	}
	if b < a+10 {
		t.Errorf("allocations overlap: %d after [%d,%d)", b, a, a+10)
	}
}

func TestAllocOffset(t *testing.T) {
	m := New(1 << 16)
	for _, off := range []int64{0, 1, 7, 31, 63} {
		a := m.AllocOffset(100, 64, off)
		if int64(a)%64 != off {
			t.Errorf("AllocOffset(...,%d): base %d mod 64 = %d", off, a, int64(a)%64)
		}
	}
}

func TestAllocPanics(t *testing.T) {
	m := New(128)
	assertPanics(t, "oversized", func() { m.Alloc(256, 1) })
	assertPanics(t, "negative", func() { m.Alloc(-1, 1) })
	assertPanics(t, "bad align", func() { m.Alloc(8, 3) })
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1 << 12)
	a := m.Alloc(64, 8)
	m.Store64(a, 0xdeadbeefcafef00d)
	if got := m.Load64(a); got != 0xdeadbeefcafef00d {
		t.Errorf("Load64 = %#x", got)
	}
}

func TestObserverSeesAccesses(t *testing.T) {
	m := New(1 << 12)
	var log []Access
	m.SetObserver(observerFunc(func(a Access) { log = append(log, a) }))
	a := m.Alloc(64, 8)
	m.Store64(a, 1)
	m.Load64(a)
	m.Touch(a+16, 4)
	m.TouchWrite(a+32, 8)
	want := []Access{
		{Addr: a, Size: 8, Write: true},
		{Addr: a, Size: 8, Write: false},
		{Addr: a + 16, Size: 4, Write: false},
		{Addr: a + 32, Size: 8, Write: true},
	}
	if len(log) != len(want) {
		t.Fatalf("observed %d accesses, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, log[i], want[i])
		}
	}
}

func TestRawIsUnobserved(t *testing.T) {
	m := New(1 << 12)
	count := 0
	m.SetObserver(observerFunc(func(Access) { count++ }))
	a := m.Alloc(16, 1)
	raw := m.Raw(a, 16)
	raw[0] = 42
	if count != 0 {
		t.Errorf("Raw access was observed (%d events)", count)
	}
	if m.Load64(a) != 42 {
		t.Error("Raw write not visible to Load64")
	}
}

func TestBoundsChecks(t *testing.T) {
	m := New(64)
	assertPanics(t, "load past end", func() { m.Load64(60) })
	assertPanics(t, "negative addr", func() { m.Load64(-1) })
	assertPanics(t, "touch past end", func() { m.Touch(0, 65) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
