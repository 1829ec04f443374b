package mem

import (
	"bytes"
	"testing"
)

func loaded(b *Buffer, off, n int) []byte {
	p := make([]byte, n)
	b.Load(p, off)
	return p
}

func freezes(m *Memory) int64 { return m.eng.Metrics().Counter("mem.view_freezes").Value() }

func TestUnwrittenBytesReadAsZero(t *testing.T) {
	for _, c := range []struct {
		name        string
		write       func(b *Buffer)
		off, n      int
		want        []byte
		materialize int64
	}{
		{"fresh", func(*Buffer) {}, 0, 4, []byte{0, 0, 0, 0}, 0},
		{"past the prefix", func(b *Buffer) { b.Store(0, []byte{9}) }, 2, 3, []byte{0, 0, 0}, 1},
		{"straddling the prefix", func(b *Buffer) { b.Store(1, []byte{7, 8}) }, 0, 5, []byte{0, 7, 8, 0, 0}, 3},
		{"gap before a write", func(b *Buffer) { b.Store(6, []byte{5}) }, 4, 4, []byte{0, 0, 5, 0}, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, m := newMem(t)
			b := m.Alloc(1 << 20)
			c.write(b)
			if got := loaded(b, c.off, c.n); !bytes.Equal(got, c.want) {
				t.Errorf("Load(%d, %d) = %v, want %v", c.off, c.n, got, c.want)
			}
			if got := m.materialized; got != c.materialize {
				t.Errorf("materialized %d bytes, want %d", got, c.materialize)
			}
		})
	}
}

func TestWritesLeaveAddressingAlone(t *testing.T) {
	type shape struct {
		addr       uint64
		n, pages   int
		touch      int64
		nextAlloc  uint64
		coldPages  int64
		registered int
	}
	observe := func(write bool) []shape {
		_, m := newMem(t)
		tab := NewRegTable(m.eng, "nic", RegCost{})
		var out []shape
		for _, n := range []int{100, 4096, 3*4096 + 17} {
			b := m.Alloc(n)
			if write {
				b.Fill(3)
				b.Store(n-1, []byte{1})
			}
			r := tab.RegisterFree(b, 0, n)
			out = append(out, shape{
				addr: b.Addr(), n: b.Len(), pages: b.Pages(1, n-1),
				touch: int64(m.TouchCost(b, 0, n)), nextAlloc: m.Alloc(1).Addr(),
				coldPages: m.ColdTouches(), registered: r.Len,
			})
		}
		return out
	}
	plain, written := observe(false), observe(true)
	for i := range plain {
		if plain[i] != written[i] {
			t.Errorf("buffer %d: %+v without writes, %+v with", i, plain[i], written[i])
		}
	}
}

func TestWritesGrowOnlyThePrefix(t *testing.T) {
	_, m := newMem(t)
	b := m.Alloc(1 << 20)
	steps := []struct {
		off, n int
		want   int64 // materialized total after the write
	}{
		{100, 10, 110},   // first write backs exactly [0, 110)
		{0, 10, 110},     // inside the prefix: nothing new
		{200, 10, 220},   // past it: capacity doubles
		{215, 5, 220},    // still inside capacity
		{4000, 96, 4096}, // beyond doubling: exactly the written end
	}
	for _, s := range steps {
		b.Store(s.off, make([]byte, s.n))
		if got := m.materialized; got != s.want {
			t.Errorf("after Store(%d, %d bytes): materialized %d, want %d", s.off, s.n, got, s.want)
		}
	}
	b.Fill(1)
	if got := m.materialized; got != 1<<20 {
		t.Errorf("after Fill: materialized %d, want the whole buffer", got)
	}
}

func TestZeroIntoUnwrittenCopyAllocatesNothing(t *testing.T) {
	_, m := newMem(t)
	src, dst := m.Alloc(4<<20), m.Alloc(4<<20)
	if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(0, src, 0, 4<<20) }); allocs != 0 {
		t.Errorf("zero copy into unwritten range: %v allocs per run", allocs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		v := src.View(0, 4<<20)
		v.CopyTo(dst, 0, 0, 4<<20)
		v.Release()
	})
	if allocs != 1 { // the View itself
		t.Errorf("zero placement into unwritten range: %v allocs per run, want 1", allocs)
	}
	if got := m.materialized; got != 0 {
		t.Errorf("materialized %d bytes", got)
	}
	// A copy whose written source part ends early zeroes only what the
	// destination had written.
	src.Store(0, []byte{1, 2})
	dst.Store(0, []byte{9, 9, 9, 9})
	dst.CopyFrom(0, src, 0, 8)
	if got := loaded(dst, 0, 8); !bytes.Equal(got, []byte{1, 2, 0, 0, 0, 0, 0, 0}) {
		t.Errorf("dst = %v", got)
	}
	if got := m.materialized; got != 2+4 {
		t.Errorf("materialized %d bytes, want 6", got)
	}
}

func TestViewLifetime(t *testing.T) {
	for _, c := range []struct {
		name           string
		release, drain bool
		wantFreezes    int64
	}{
		{"released and drained never freezes", true, true, 0},
		{"undrained freezes", true, false, 1},
		{"unreleased freezes", false, true, 1},
		{"live freezes", false, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, m := newMem(t)
			src, dst := m.Alloc(8192), m.Alloc(8192)
			src.Fill(5)
			v := src.View(100, 5000)
			if c.drain {
				v.CopyTo(dst, 100, 0, 3000)
				v.CopyTo(dst, 3100, 3000, 2000)
			}
			if c.release {
				v.Release()
			}
			src.Fill(6)
			src.Store(200, []byte{1}) // a second write never freezes twice
			if got := freezes(m); got != c.wantFreezes {
				t.Errorf("freezes = %d, want %d", got, c.wantFreezes)
			}
			if !c.drain {
				v.CopyTo(dst, 100, 0, 5000)
			}
			if !dst.Equal(5, 100, 5000) {
				t.Error("view did not deliver the bytes it was taken with")
			}
		})
	}
}

func TestViewFreezesOnlyOverlappingWrites(t *testing.T) {
	_, m := newMem(t)
	b := m.Alloc(1 << 16)
	b.Store(0, []byte{1, 2, 3, 4})
	v := b.View(1000, 1000)
	b.Store(0, []byte{9})    // before the view
	b.Store(2000, []byte{9}) // just past it
	if got := freezes(m); got != 0 {
		t.Fatalf("disjoint writes froze %d views", got)
	}
	b.Store(1999, []byte{9})
	if got := freezes(m); got != 1 {
		t.Fatalf("overlapping write froze %d views, want 1", got)
	}
	// The view was all zeros (past the prefix when taken): it still is.
	p := v.Stash(nil, 0, 0, 1000)
	if !bytes.Equal(p, make([]byte, 1000)) {
		t.Error("frozen unwritten view does not read as zero")
	}
}

func TestReleasedViewPanicsOnRead(t *testing.T) {
	_, m := newMem(t)
	src, dst := m.Alloc(64), m.Alloc(64)
	v := src.View(0, 64)
	v.CopyTo(dst, 0, 0, 64)
	v.Release()
	defer func() {
		if recover() == nil {
			t.Error("reading a released view did not panic")
		}
	}()
	v.CopyTo(dst, 0, 0, 1)
}

func TestInvariants(t *testing.T) {
	_, m := newMem(t)
	b := m.Alloc(10_000)
	b.Store(9_000, []byte{1})
	m.Alloc(5)
	if err := m.Invariants(); err != nil {
		t.Fatalf("healthy memory: %v", err)
	}
	m.materialized = m.allocated + 1
	if err := m.Invariants(); err == nil {
		t.Error("materialized > allocated passed the invariant")
	}
}
