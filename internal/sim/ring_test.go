package sim

import "testing"

func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head wraps before every growth.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round/2; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Errorf("popped %d items, pushed %d", want, next)
	}
}

// TestQueueStandingBacklogAllocatesNothing pins the Queue's steady-state
// claim for a queue that never drains: with one item always waiting, put
// and get cycles reuse the backing array, where an append-only slice
// reused only once empty grows for the queue's lifetime.
func TestQueueStandingBacklogAllocatesNothing(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "backlog")
	q.Put(-1)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			q.Put(i)
			q.TryGet()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 10^4 put/get cycles, want 0", allocs)
	}
	if c := len(q.items.buf); c > 4 {
		t.Errorf("backing array grew to %d items for a backlog of one", c)
	}
	if v, _ := q.Peek(); v != 9_999 {
		t.Errorf("oldest item = %d, want 9999", v)
	}
}
