package sim

import (
	"fmt"
	"testing"
)

// These tests pin the hot-path overhaul's contracts: the O(1) Pending
// counter agrees with a scan of the heap, Cancel compacts the heap instead
// of leaving tombstones, and the steady-state schedule→fire and
// sleep→resume cycles allocate nothing.

// pendingScan counts live events the way the old engine did: by walking the
// whole queue and skipping cancelled entries (the indexed heap removes
// cancelled events eagerly, so here every queued node is live).
func (e *Engine) pendingScan() int {
	n := 0
	for _, ev := range e.heap {
		if ev != nil {
			n++
		}
	}
	return n
}

func TestPendingCounterMatchesScan(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	check := func(when string) {
		t.Helper()
		if got, want := e.Pending(), e.pendingScan(); got != want {
			t.Fatalf("%s: Pending() = %d, heap scan = %d", when, got, want)
		}
	}
	check("empty")
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.Schedule(Time(i+1)*Microsecond, func() {}))
		e.After(Time(i+1)*Microsecond, func() {})
	}
	check("after 200 schedules")
	// Cancel a deterministic scatter of handles, including double-cancels.
	for i := 0; i < len(evs); i += 3 {
		evs[i].Cancel()
		evs[i].Cancel()
	}
	check("after cancels")
	if err := e.RunUntil(50 * Microsecond); err != nil {
		t.Fatal(err)
	}
	check("mid-run")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check("drained")
	if e.Pending() != 0 {
		t.Fatalf("drained engine reports %d pending", e.Pending())
	}
}

func TestMassCancelCompactsHeap(t *testing.T) {
	// The old heap kept cancelled events queued until their deadline, so a
	// schedule-then-cancel loop (the TCP RTO pattern: every ACK re-arms the
	// timer) grew the queue without bound. The indexed heap must remove on
	// Cancel: after N such cycles the queue holds only the standing events.
	e := NewEngine()
	defer e.Close()
	const standing = 8
	for i := 0; i < standing; i++ {
		e.After(Time(i+1)*Second, func() {})
	}
	for i := 0; i < 100000; i++ {
		e.Schedule(Millisecond, func() {}).Cancel()
	}
	if got := len(e.heap); got != standing {
		t.Fatalf("heap holds %d events after mass cancel, want %d", got, standing)
	}
	if got := e.Pending(); got != standing {
		t.Fatalf("Pending() = %d after mass cancel, want %d", got, standing)
	}
}

func TestScheduleFireZeroAlloc(t *testing.T) {
	// With tracing and metrics hooks off, the After→fire cycle must not
	// allocate: fired no-handle events return to the engine's free list.
	e := NewEngine()
	defer e.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Microsecond, func() {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("After→fire cycle allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAtArgFireZeroAlloc(t *testing.T) {
	// The argument-carrying form must stay clean end to end: one long-lived
	// callback, a pointer-shaped argument (interface conversion without
	// boxing), and a recycled event node.
	e := NewEngine()
	defer e.Close()
	type payload struct{ n int }
	pl := &payload{}
	fired := 0
	deliver := func(v any) {
		fired += v.(*payload).n
	}
	pl.n = 1
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtArg(e.Now()+Microsecond, deliver, pl)
		e.AfterArg(Microsecond, deliver, pl)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AtArg→fire cycle allocates %.1f objects/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("argument-carrying events never fired")
	}
}

func TestAtArgDeliversArgument(t *testing.T) {
	// Argument-carrying and closure events scheduled for the same instant
	// share the (time, seq) total order, and each fnArg call sees its own
	// argument even though the nodes recycle through the same free list.
	e := NewEngine()
	defer e.Close()
	var got []int
	rec := func(v any) { got = append(got, *v.(*int)) }
	a, b := 1, 2
	e.AtArg(Microsecond, rec, &a)
	e.After(Microsecond, func() { got = append(got, 10) })
	e.AfterArg(Microsecond, rec, &b)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", got, want)
		}
	}
}

func TestSleepResumeZeroAlloc(t *testing.T) {
	// A parked process resumes through a pooled event; the
	// sleep→resume cycle must not allocate either.
	e := NewEngine()
	defer e.Close()
	wake := NewQueue[int](e, "wake")
	done := NewQueue[int](e, "done")
	e.Go("sleeper", func(p *Proc) {
		for {
			n := wake.Get(p)
			for i := 0; i < n; i++ {
				p.Sleep(Microsecond)
			}
			done.Put(n)
		}
	})
	if err := e.RunFor(Microsecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		wake.Put(5)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if _, ok := done.TryGet(); !ok {
			t.Fatal("sleeper did not finish its sleeps")
		}
	})
	if allocs != 0 {
		t.Fatalf("sleep→resume cycle allocates %.1f objects/op, want 0", allocs)
	}
}

func TestFreeListReuseKeepsOrder(t *testing.T) {
	// Heavy recycling must not disturb the (time, seq) total order: a fresh
	// event and a recycled one scheduled for the same instant fire in
	// schedule order.
	e := NewEngine()
	defer e.Close()
	var got []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			round, i := round, i
			e.After(Microsecond, func() { got = append(got, fmt.Sprintf("r%d-e%d", round, i)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"r0-e0", "r0-e1", "r0-e2", "r0-e3",
		"r1-e0", "r1-e1", "r1-e2", "r1-e3",
		"r2-e0", "r2-e1", "r2-e2", "r2-e3",
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}
