package sim

import "testing"

func TestFreeListPerEngineAndCapped(t *testing.T) {
	type pkt struct{ n int }
	type seg struct{ n int }
	e1, e2 := NewEngine(), NewEngine()
	l := FreeListOf[pkt](e1)
	if FreeListOf[pkt](e1) != l {
		t.Fatal("one engine handed out two lists of one type")
	}
	if FreeListOf[pkt](e2) == l {
		t.Fatal("two engines share a list")
	}
	if any(FreeListOf[seg](e1)) == any(l) {
		t.Fatal("two types share a list")
	}
	x := l.Get()
	x.n = 7
	l.Put(x)
	if y := l.Get(); y != x || y.n != 0 {
		t.Errorf("Get returned %p (n=%d), want the recycled %p zeroed", y, y.n, x)
	}
	for i := 0; i < freeListMax+10; i++ {
		l.Put(&pkt{})
	}
	if len(l.free) != freeListMax {
		t.Errorf("list holds %d idle structs, cap %d", len(l.free), freeListMax)
	}
}
