package mem

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestAllocNMatchesSequentialAlloc(t *testing.T) {
	_, a := newMem(t)
	_, b := newMem(t)
	a.Alloc(100) // start both memories off a page boundary
	b.Alloc(100)
	bufs := a.AllocN(5, 4096+32)
	for i := range bufs {
		want := b.Alloc(4096 + 32)
		if bufs[i].Addr() != want.Addr() || bufs[i].Len() != want.Len() || bufs[i].Memory() != a {
			t.Fatalf("slab buffer %d at %#x len %d, sequential Alloc at %#x len %d",
				i, bufs[i].Addr(), bufs[i].Len(), want.Addr(), want.Len())
		}
	}
	if next, want := a.Alloc(1).Addr(), b.Alloc(1).Addr(); next != want {
		t.Fatalf("next Alloc after the slab at %#x, want %#x", next, want)
	}
	if a.allocated != b.allocated {
		t.Fatalf("allocated %d bytes, sequential %d", a.allocated, b.allocated)
	}
}

func TestRegTableLookupEdges(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{})
	bufs := m.AllocN(3, 64)
	regs := tab.RegisterFreeEach(bufs)
	for i := range regs {
		if regs[i].Key != RKey(i+1) || regs[i].Buf != &bufs[i] || regs[i].Off != 0 || regs[i].Len != 64 || !regs[i].Valid() {
			t.Fatalf("region %d = %+v", i, regs[i])
		}
		if got, ok := tab.Lookup(regs[i].Key); !ok || got != &regs[i] {
			t.Fatalf("Lookup(%d) = %v, %v", regs[i].Key, got, ok)
		}
	}
	tab.DeregisterFree(&regs[1])
	for _, key := range []RKey{0, regs[1].Key, 4, 1 << 20} {
		if r, ok := tab.Lookup(key); ok || r != nil {
			t.Errorf("Lookup(%d) = %v, %v; want nothing", key, r, ok)
		}
	}
	if _, ok := tab.Lookup(regs[2].Key); !ok {
		t.Error("deregistering one key lost its neighbour")
	}
	if regs, deregs, pinned := tab.Stats(); regs != 3 || deregs != 1 || pinned != 2*64 {
		t.Errorf("stats = %d regs, %d deregs, %d pinned", regs, deregs, pinned)
	}
}

func TestRegTableNeverReusesKeys(t *testing.T) {
	eng, m := newMem(t)
	tab := NewRegTable(eng, "nic0", RegCost{})
	b := m.Alloc(4096)
	seen := map[RKey]bool{}
	for i := 0; i < 10; i++ {
		r := tab.RegisterFree(b, 0, 4096)
		if seen[r.Key] {
			t.Fatalf("key %d handed out twice", r.Key)
		}
		seen[r.Key] = true
		tab.DeregisterFree(r)
	}
	if regs := tab.RegisterFreeEach(m.AllocN(2, 8)); regs[0].Key != 11 || regs[1].Key != 12 {
		t.Fatalf("slab keys %d, %d after ten registrations, want 11, 12", regs[0].Key, regs[1].Key)
	}
}

// orOne is a reduction whose identity is not zero: op(0, 0) sets every
// byte to 1.
func orOne(dst, src []byte) {
	for i := range dst {
		dst[i] |= src[i] | 1
	}
}

func addBytes(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func TestCombineOfUnwrittenRanges(t *testing.T) {
	_, m := newMem(t)
	acc, in := m.Alloc(64), m.Alloc(64)
	acc.Combine(0, in, 0, 64, addBytes)
	if m.materialized != 0 {
		t.Fatalf("zero combine materialized %d bytes", m.materialized)
	}
	acc.Combine(8, in, 8, 16, orOne)
	if got := loaded(acc, 0, 32); !bytes.Equal(got[8:24], bytes.Repeat([]byte{1}, 16)) || got[7] != 0 || got[24] != 0 {
		t.Fatalf("op(0,0) != 0 result = %v", got)
	}
	// The scratch pair is zeroed again for the next call.
	acc.Combine(32, in, 32, 16, addBytes)
	if got := loaded(acc, 32, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("reused scratch leaked into a zero combine: %v", got)
	}
	if m.materialized == 0 || len(acc.data) != 24 {
		t.Fatalf("materialized %d, written prefix %d; want only the non-zero result written", m.materialized, len(acc.data))
	}
	// Written operands take the ordinary path.
	in.Store(40, []byte{5})
	acc.Combine(32, in, 32, 16, addBytes)
	if got := loaded(acc, 40, 1); got[0] != 5 {
		t.Fatalf("combine of a written source = %v", got)
	}
}

// TestCombineScratchIsPerEngine checks that the memories of one engine
// share one zero scratch, which keeps the largest pair any of them needed,
// while another engine's memory has its own.
func TestCombineScratchIsPerEngine(t *testing.T) {
	eng := sim.NewEngine()
	a, b := NewMemory(eng, "a"), NewMemory(eng, "b")
	other := NewMemory(sim.NewEngine(), "other")
	if a.scratch != b.scratch || a.scratch == other.scratch {
		t.Fatal("zero scratch is not shared by exactly the engine's memories")
	}
	x, y := a.Alloc(4096), b.Alloc(4096)
	x.Combine(0, x, 0, 4096, orOne)
	before := cap(a.scratch.b)
	y.Combine(0, y, 0, 1024, orOne)
	if cap(b.scratch.b) != before || before < 2*4096 {
		t.Errorf("scratch capacity %d after a 4 KiB combine, %d after a 1 KiB one on another host", before, cap(b.scratch.b))
	}
	if got := loaded(y, 0, 1024); !bytes.Equal(got, bytes.Repeat([]byte{1}, 1024)) {
		t.Errorf("second host's combine read scratch left by the first: %v", got[:8])
	}
}
