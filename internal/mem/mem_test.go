package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newMem(t *testing.T) (*sim.Engine, *Memory) {
	t.Helper()
	eng := sim.NewEngine()
	m := NewMemory(eng, "host0")
	return eng, m
}

func TestAllocAligned(t *testing.T) {
	_, m := newMem(t)
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a.Addr()%uint64(m.PageSize) != 0 || b.Addr()%uint64(m.PageSize) != 0 {
		t.Errorf("unaligned buffers: %x %x", a.Addr(), b.Addr())
	}
	if a.Addr() == b.Addr() {
		t.Error("buffers overlap")
	}
	if a.Len() != 100 {
		t.Errorf("len = %d", a.Len())
	}
}

func TestPagesSpanned(t *testing.T) {
	_, m := newMem(t)
	b := m.Alloc(3 * 4096)
	cases := []struct {
		off, n, want int
	}{
		{0, 1, 1},
		{0, 4096, 1},
		{0, 4097, 2},
		{4095, 2, 2},
		{0, 3 * 4096, 3},
		{100, 0, 0},
	}
	for _, c := range cases {
		if got := b.Pages(c.off, c.n); got != c.want {
			t.Errorf("Pages(%d,%d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestFillEqual(t *testing.T) {
	_, m := newMem(t)
	b := m.Alloc(1024)
	b.Fill(7)
	if !b.Equal(7, 0, 1024) {
		t.Error("Fill/Equal mismatch")
	}
	if b.Equal(8, 0, 1024) {
		t.Error("Equal matched wrong seed")
	}
}

func TestCopyMovesBytesAndCharges(t *testing.T) {
	eng, m := newMem(t)
	src := m.Alloc(8192)
	dst := m.Alloc(8192)
	src.Fill(3)
	var took sim.Time
	eng.Go("copier", func(p *sim.Proc) {
		start := p.Now()
		m.Copy(p, dst, 0, src, 0, 8192)
		took = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(3, 0, 8192) {
		t.Error("copy did not move bytes")
	}
	// 8192 B at 2 GB/s = 4.096us plus 4 cold pages (2 src + 2 dst):
	// 4 TLB misses and 16 KB of cold fills.
	wantMin := sim.Micros(4.0) + 4*m.TLBMissCost
	if took < wantMin {
		t.Errorf("copy took %v, want >= %v", took, wantMin)
	}
	if m.ColdTouches() != 4 {
		t.Errorf("cold touches = %d, want 4", m.ColdTouches())
	}
}

func TestWarmSetReuseIsCheaper(t *testing.T) {
	eng, m := newMem(t)
	src := m.Alloc(4096)
	dst := m.Alloc(4096)
	var first, second sim.Time
	eng.Go("copier", func(p *sim.Proc) {
		t0 := p.Now()
		m.Copy(p, dst, 0, src, 0, 4096)
		first = p.Now() - t0
		t1 := p.Now()
		m.Copy(p, dst, 0, src, 0, 4096)
		second = p.Now() - t1
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Errorf("warm copy (%v) not cheaper than cold copy (%v)", second, first)
	}
	wantSaving := 2*m.TLBMissCost + m.ColdFillRate.TxTime(2*4096)
	if d := first - second - wantSaving; d < -sim.Nanosecond || d > sim.Nanosecond {
		t.Errorf("warm saving = %v, want %v", first-second, wantSaving)
	}
}

func TestWarmSetEvicts(t *testing.T) {
	eng, m := newMem(t)
	m.WarmPages = 4
	bufs := make([]*Buffer, 8)
	for i := range bufs {
		bufs[i] = m.Alloc(4096)
	}
	eng.Go("toucher", func(p *sim.Proc) {
		// Cycle through 8 single-page buffers with a 4-page warm set:
		// every touch must be cold.
		for round := 0; round < 3; round++ {
			for _, b := range bufs {
				p.Sleep(m.TouchCost(b, 0, 4096))
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ColdTouches() != 24 {
		t.Errorf("cold touches = %d, want 24 (LRU thrash)", m.ColdTouches())
	}
}

// TestWarmSetLRUOrderAndReuse pins the warm set's LRU order across a
// promotion and an eviction, and that evictions reuse the LRU array
// rather than sliding off its front and regrowing.
func TestWarmSetLRUOrderAndReuse(t *testing.T) {
	_, m := newMem(t)
	m.WarmPages = 3
	bufs := make([]*Buffer, 5)
	for i := range bufs {
		bufs[i] = m.Alloc(4096)
	}
	a, b, c, d := bufs[0], bufs[1], bufs[2], bufs[3]
	cold := func(x *Buffer) bool {
		before := m.ColdTouches()
		m.TouchCost(x, 0, 1)
		return m.ColdTouches() > before
	}
	// a, b, c cold; a promoted past b and c; d evicts b (least recent),
	// so a and c stay warm and b is cold again.
	for i, step := range []struct {
		buf  *Buffer
		cold bool
	}{{a, true}, {b, true}, {c, true}, {a, false}, {d, true}, {a, false}, {c, false}, {b, true}} {
		if got := cold(step.buf); got != step.cold {
			t.Fatalf("touch %d: cold = %v, want %v", i, got, step.cold)
		}
	}
	base := &m.warmLRU[0]
	for i := 0; i < 100; i++ {
		cold(bufs[i%len(bufs)])
	}
	if &m.warmLRU[0] != base || len(m.warmLRU) != m.WarmPages {
		t.Errorf("evictions moved or resized the LRU array (len %d)", len(m.warmLRU))
	}
}

func TestTouchCostDisabled(t *testing.T) {
	_, m := newMem(t)
	m.WarmPages = 0
	b := m.Alloc(4096)
	if c := m.TouchCost(b, 0, 4096); c != 0 {
		t.Errorf("cost with model disabled = %v", c)
	}
}

func TestRegisterChargesPerPage(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{Base: sim.Microsecond, PerPage: 500 * sim.Nanosecond, DeregBase: 200 * sim.Nanosecond})
	b := m.Alloc(4 * 4096)
	var took sim.Time
	var reg *Region
	eng.Go("reg", func(p *sim.Proc) {
		t0 := p.Now()
		reg = tab.Register(p, b, 0, 4*4096)
		took = p.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Microsecond + 4*500*sim.Nanosecond; took != want {
		t.Errorf("registration took %v, want %v", took, want)
	}
	if !reg.Valid() {
		t.Error("region not valid after register")
	}
	if got, ok := tab.Lookup(reg.Key); !ok || got != reg {
		t.Error("lookup failed")
	}
	eng2 := sim.NewEngine()
	_ = eng2
	eng.Go("dereg", func(p *sim.Proc) { tab.Deregister(p, reg) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reg.Valid() {
		t.Error("region valid after deregister")
	}
	if _, ok := tab.Lookup(reg.Key); ok {
		t.Error("lookup found deregistered region")
	}
}

func TestRegionSliceBounds(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{})
	b := m.Alloc(8192)
	r := tab.RegisterFree(b, 4096, 4096)
	if !r.Contains(0, 4096) || r.Contains(1, 4096) {
		t.Error("Contains wrong")
	}
	r.Store(0, []byte{1, 2, 3})
	got := make([]byte, 4)
	b.Load(got, 4096)
	if string(got) != "\x01\x02\x03\x00" {
		t.Errorf("region store landed as %v at the window start", got)
	}
	r.Load(got[:3], 0)
	if string(got[:3]) != "\x01\x02\x03" {
		t.Errorf("region load = %v", got[:3])
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"store", func() { r.Store(4000, make([]byte, 200)) }},
		{"load", func() { r.Load(make([]byte, 200), 4000) }},
		{"view", func() { r.View(4000, 200) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-bounds region %s did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestRegCacheHitsSkipCost(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{Base: 10 * sim.Microsecond, PerPage: sim.Microsecond})
	cache := NewRegCache(tab, 8)
	b := m.Alloc(4096)
	var missTime, hitTime sim.Time
	eng.Go("user", func(p *sim.Proc) {
		t0 := p.Now()
		r := cache.Get(p, b, 0, 4096)
		missTime = p.Now() - t0
		cache.Put(p, r)
		t1 := p.Now()
		r = cache.Get(p, b, 0, 4096)
		hitTime = p.Now() - t1
		cache.Put(p, r)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if missTime != 11*sim.Microsecond {
		t.Errorf("miss time = %v", missTime)
	}
	if hitTime != 0 {
		t.Errorf("hit time = %v, want 0", hitTime)
	}
	if hr := cache.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestRegCacheLRUThrash(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{Base: sim.Microsecond})
	cache := NewRegCache(tab, 4)
	bufs := make([]*Buffer, 8)
	for i := range bufs {
		bufs[i] = m.Alloc(4096)
	}
	eng.Go("user", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for _, b := range bufs {
				r := cache.Get(p, b, 0, 4096)
				cache.Put(p, r)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	hits, misses, live := cache.Stats()
	if hits != 0 {
		t.Errorf("hits = %d, want 0 under LRU thrash", hits)
	}
	if misses != 24 {
		t.Errorf("misses = %d, want 24", misses)
	}
	if live != 4 {
		t.Errorf("live entries = %d, want 4", live)
	}
	regs, deregs, _ := tab.Stats()
	if regs != 24 || deregs != 20 {
		t.Errorf("regs=%d deregs=%d", regs, deregs)
	}
}

func TestRegCacheDisabled(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{Base: sim.Microsecond, DeregBase: sim.Microsecond})
	cache := NewRegCache(tab, 8)
	cache.Enabled = false
	b := m.Alloc(4096)
	eng.Go("user", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r := cache.Get(p, b, 0, 4096)
			cache.Put(p, r)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	regs, deregs, pinned := tab.Stats()
	if regs != 5 || deregs != 5 || pinned != 0 {
		t.Errorf("regs=%d deregs=%d pinned=%d", regs, deregs, pinned)
	}
}

func TestRegCacheDoesNotEvictInUse(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{})
	cache := NewRegCache(tab, 1)
	a, b := m.Alloc(4096), m.Alloc(4096)
	eng.Go("user", func(p *sim.Proc) {
		ra := cache.Get(p, a, 0, 4096)
		rb := cache.Get(p, b, 0, 4096) // a is in use: cache over-commits
		if !ra.Valid() || !rb.Valid() {
			t.Error("in-use region was evicted")
		}
		cache.Put(p, ra)
		cache.Put(p, rb)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegCostProperty(t *testing.T) {
	f := func(basNs, perNs uint16, pages uint8) bool {
		c := RegCost{Base: sim.Time(basNs) * sim.Nanosecond, PerPage: sim.Time(perNs) * sim.Nanosecond}
		got := c.Of(int(pages))
		return got == c.Base+sim.Time(pages)*c.PerPage && got >= c.Base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyCostMonotone(t *testing.T) {
	_, m := newMem(t)
	m.WarmPages = 0 // isolate the bandwidth term
	a, b := m.Alloc(1<<20), m.Alloc(1<<20)
	prev := -sim.Picosecond // below any real cost
	for _, n := range []int{1, 64, 4096, 65536, 1 << 20} {
		c := m.CopyCost(a, 0, b, 0, n)
		if c <= prev {
			t.Errorf("CopyCost(%d) = %v not monotone", n, c)
		}
		prev = c
	}
}
