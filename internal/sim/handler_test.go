package sim

import (
	"fmt"
	"testing"
)

// The event-handler forms (AcquireThen, UseThen, WaitThen, Stage) promise
// to schedule exactly the events the process forms would, at the same
// program points. Each test runs one scenario twice, once with every
// participant a process and once with some of them handlers, and requires
// the same order, the same wake-up times and the same sim.events_fired.

// run drains e and returns its sim.events_fired.
func run(t *testing.T, e *Engine) int64 {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Metrics().Snapshot().Counters["sim.events_fired"]
}

// acquireScenario queues waiters a, b and c, in that order, behind a
// holder of a capacity-1 resource; each holds it for 1 us once granted.
// With then set, b is an AcquireThen handler chain instead of a process.
func acquireScenario(t *testing.T, then bool) (string, int64) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []string
	e.Go("holder", func(p *Proc) { r.Use(p, 5*Microsecond) })
	proc := func(name string) {
		e.Go(name, func(p *Proc) {
			p.Sleep(Microsecond)
			r.Acquire(p, 1)
			order = append(order, name+"@"+p.Now().String())
			p.Sleep(Microsecond)
			r.Release(1)
		})
	}
	proc("a")
	if then {
		// Go, Sleep, Acquire, Sleep as one event each, like proc("b").
		release := func(any) { r.Release(1) }
		granted := func(any) {
			order = append(order, "b@"+e.Now().String())
			e.AfterArg(Microsecond, release, nil)
		}
		acquire := func(any) { r.AcquireThen(1, granted, nil) }
		e.AfterArg(0, func(any) { e.AfterArg(Microsecond, acquire, nil) }, nil)
	} else {
		proc("b")
	}
	proc("c")
	events := run(t, e)
	return fmt.Sprint(order), events
}

func TestAcquireThenSharesFIFOWithProcs(t *testing.T) {
	wantOrder, wantEvents := acquireScenario(t, false)
	if wantOrder != "[a@5us b@6us c@7us]" {
		t.Fatalf("process baseline order = %s", wantOrder)
	}
	order, events := acquireScenario(t, true)
	if order != wantOrder {
		t.Errorf("with AcquireThen: order %s, want %s", order, wantOrder)
	}
	if events != wantEvents {
		t.Errorf("with AcquireThen: %d events, want %d", events, wantEvents)
	}
}

func TestAcquireThenOnFreeResourceRunsSynchronously(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 2)
	ran := false
	r.AcquireThen(2, func(any) { ran = true }, nil)
	if !ran {
		t.Fatal("AcquireThen on a free resource did not run at once")
	}
	if e.Pending() != 0 {
		t.Errorf("AcquireThen on a free resource scheduled %d events", e.Pending())
	}
	// Busy now: the next request waits for the Release that grants it.
	granted := -Microsecond
	r.AcquireThen(1, func(any) { granted = e.Now() }, nil)
	e.After(3*Microsecond, func() { r.Release(2) })
	run(t, e)
	if granted != 3*Microsecond {
		t.Errorf("queued AcquireThen granted at %v, want 3us", granted)
	}
}

// useScenario has two users of a capacity-1 resource; with then set the
// second is a UseThen handler.
func useScenario(t *testing.T, then bool) (string, int64) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []string
	e.Go("a", func(p *Proc) {
		r.Use(p, 2*Microsecond)
		order = append(order, "a@"+p.Now().String())
	})
	if then {
		e.AfterArg(0, func(any) {
			r.UseThen(3*Microsecond, func(any) { order = append(order, "b@"+e.Now().String()) }, nil)
		}, nil)
	} else {
		e.Go("b", func(p *Proc) {
			r.Use(p, 3*Microsecond)
			order = append(order, "b@"+p.Now().String())
		})
	}
	events := run(t, e)
	return fmt.Sprint(order), events
}

func TestUseThenMatchesUse(t *testing.T) {
	wantOrder, wantEvents := useScenario(t, false)
	if wantOrder != "[a@2us b@5us]" {
		t.Fatalf("process baseline order = %s", wantOrder)
	}
	order, events := useScenario(t, true)
	if order != wantOrder || events != wantEvents {
		t.Errorf("with UseThen: %s in %d events, want %s in %d", order, events, wantOrder, wantEvents)
	}
}

// waitScenario has waiters a, b and c start on one completion in that
// order before it fires at 4 us; with then set, b is a WaitThen handler.
func waitScenario(t *testing.T, then bool) (string, int64) {
	e := NewEngine()
	c := NewCompletion(e)
	var order []string
	proc := func(name string) {
		e.Go(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name+"@"+p.Now().String())
		})
	}
	proc("a")
	if then {
		woke := func(any) { order = append(order, "b@"+e.Now().String()) }
		e.AfterArg(0, func(any) { c.WaitThen(woke, nil) }, nil)
	} else {
		proc("b")
	}
	proc("c")
	e.After(4*Microsecond, c.Fire)
	events := run(t, e)
	return fmt.Sprint(order), events
}

func TestWaitThenSharesOrderWithProcs(t *testing.T) {
	wantOrder, wantEvents := waitScenario(t, false)
	if wantOrder != "[a@4us b@4us c@4us]" {
		t.Fatalf("process baseline order = %s", wantOrder)
	}
	order, events := waitScenario(t, true)
	if order != wantOrder || events != wantEvents {
		t.Errorf("with WaitThen: %s in %d events, want %s in %d", order, events, wantOrder, wantEvents)
	}
	// A fired completion runs the continuation at once.
	e := NewEngine()
	c := NewCompletion(e)
	c.Fire()
	ran := false
	c.WaitThen(func(any) { ran = true }, nil)
	if !ran || e.Pending() != 0 {
		t.Errorf("WaitThen on a fired completion: ran=%v pending=%d", ran, e.Pending())
	}
}

// stageScenario serves items put at 0, 0 and 3 us, taking 2 us each, with
// a process looping on a Queue or (then set) a Stage handler.
func stageScenario(t *testing.T, then bool) (string, int64) {
	e := NewEngine()
	var order []string
	var put func(int)
	if then {
		var s Stage[int]
		var next func()
		served := func(v any) {
			order = append(order, fmt.Sprint(v, "@", e.Now()))
			next()
		}
		next = func() {
			if v, ok := s.Next(); ok {
				e.AfterArg(2*Microsecond, served, v)
			}
		}
		s.Init(e, func(any) { next() }, nil)
		put = s.Put
	} else {
		q := NewQueue[int](e, "q")
		e.Go("server", func(p *Proc) {
			for {
				v := q.Get(p)
				p.Sleep(2 * Microsecond)
				order = append(order, fmt.Sprint(v, "@", e.Now()))
			}
		})
		put = q.Put
	}
	e.After(0, func() { put(1); put(2) })
	e.After(3*Microsecond, func() { put(3) })
	events := run(t, e)
	e.Close()
	return fmt.Sprint(order), events
}

func TestStageMatchesQueueServer(t *testing.T) {
	wantOrder, wantEvents := stageScenario(t, false)
	if wantOrder != "[1@2us 2@4us 3@6us]" {
		t.Fatalf("process baseline order = %s", wantOrder)
	}
	order, events := stageScenario(t, true)
	if order != wantOrder {
		t.Errorf("with Stage: order %s, want %s", order, wantOrder)
	}
	// The looping process costs one start event the stage does not have.
	if events != wantEvents-1 {
		t.Errorf("with Stage: %d events, want %d (the process's %d less its start)", events, wantEvents-1, wantEvents)
	}
}

func TestRingGrowPresizes(t *testing.T) {
	var r Ring[int]
	r.Push(1)
	r.Pop()
	r.Push(2) // head is now 1: Grow must keep the wrapped item
	r.Grow(10)
	if len(r.buf) < 11 {
		t.Fatalf("Grow(10) with 1 item left %d slots", len(r.buf))
	}
	before := len(r.buf)
	for i := 0; i < 10; i++ {
		r.Push(3 + i)
	}
	if len(r.buf) != before {
		t.Errorf("10 pushes after Grow(10) regrew the ring to %d slots", len(r.buf))
	}
	for want := 2; want <= 12; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
}
