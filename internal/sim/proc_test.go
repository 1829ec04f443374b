package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Coroutine lifecycle: every Proc is an iter.Pull coroutine, so these tests
// pin what the engine owes each one — a coroutine that never ran still
// finishes at Close, a closed engine leaves nothing running behind it, and a
// coroutine may be resumed from a different goroutine each epoch.

func TestCloseFinishesUndispatchedProcs(t *testing.T) {
	e := NewEngine()
	var ran []string
	var done []*Completion
	for i := 0; i < 3; i++ {
		name := fmt.Sprint("never-", i)
		p := e.Go(name, func(p *Proc) { ran = append(ran, name) })
		done = append(done, p.Done())
	}
	if e.LiveProcs() != 3 {
		t.Fatalf("live procs = %d, want 3", e.LiveProcs())
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Errorf("live procs after close = %d, want 0", e.LiveProcs())
	}
	for i, c := range done {
		if !c.Fired() {
			t.Errorf("Done() of proc %d did not fire at Close", i)
		}
	}
	if len(ran) != 0 {
		t.Errorf("killed-before-start bodies ran: %v", ran)
	}
}

func TestClosedEnginesLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := NewEngine()
		c := NewCompletion(e)
		q := NewQueue[int](e, "q")
		e.Go("waiter", func(p *Proc) { c.Wait(p) })
		e.Go("getter", func(p *Proc) { p.Sleep(Microsecond); q.Get(p) })
		e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
		if err := e.RunUntil(10 * Microsecond); err != nil {
			t.Fatal(err)
		}
		e.Go("unstarted", func(p *Proc) {})
		if e.LiveProcs() != 4 {
			t.Fatalf("engine %d: live procs = %d, want 4", i, e.LiveProcs())
		}
		e.Close()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines after closing 200 engines = %d, baseline %d", n, base)
	}
}

// TestProcResumedFromAlternatingGoroutines drives one engine the way
// internal/pdes drives a shard: one RunBefore epoch at a time, each on a
// worker goroutine that the driver waits for before the next epoch. Each
// epoch is a subtest, which t.Run runs on a goroutine of its own and waits
// for, so every epoch resumes the process coroutines from a different
// goroutine than the epoch before (and than the one that created them).
func TestProcResumedFromAlternatingGoroutines(t *testing.T) {
	world := func(log *[]string) *Engine {
		e := NewEngine()
		for _, name := range []string{"a", "b"} {
			e.Go(name, func(p *Proc) {
				for i := 0; i < 20; i++ {
					p.Sleep(Microsecond)
					*log = append(*log, fmt.Sprint(name, i, "@", p.Now()))
				}
			})
		}
		return e
	}
	var want []string
	ref := world(&want)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	var got []string
	e := world(&got)
	for epoch := 1; !e.Idle(); epoch++ {
		limit := Time(epoch) * 3 * Microsecond / 2
		if !t.Run(fmt.Sprint("epoch", epoch), func(t *testing.T) {
			if err := e.RunBefore(limit); err != nil {
				t.Fatal(err)
			}
		}) {
			t.FailNow()
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("epoch-driven order differs:\n got %v\nwant %v", got, want)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("live procs = %d, want 0", e.LiveProcs())
	}
}

// TestGoReusesFinishedCoroutines pins the recycling itself: a proc started
// after another finished runs on the finished one's coroutine.
func TestGoReusesFinishedCoroutines(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	first := e.Go("first", func(p *Proc) { p.Sleep(Microsecond) })
	c := first.co
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.idle != c || first.co != nil {
		t.Fatal("finished proc's coroutine is not on the idle list")
	}
	var woke Time
	second := e.Go("second", func(p *Proc) { p.Sleep(Microsecond); woke = p.Now() })
	if second.co != c || e.idle != nil {
		t.Fatal("Go did not take the idle coroutine")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 2*Microsecond || !second.Done().Fired() {
		t.Errorf("recycled coroutine: woke at %v, done %v", woke, second.Done().Fired())
	}
}

// TestRecycledCoroutinesLeakNothing builds, runs and closes 200 engines
// whose coroutines have run finished procs and now carry parked and
// never-started ones, and checks that Close leaves no goroutine behind.
func TestRecycledCoroutinesLeakNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := NewEngine()
		c := NewCompletion(e)
		for j := 0; j < 3; j++ {
			e.Go("short", func(p *Proc) { p.Sleep(Time(j) * Nanosecond) })
		}
		if err := e.RunUntil(Microsecond); err != nil {
			t.Fatal(err)
		}
		// These reuse the three idle coroutines: two park, one never runs.
		e.Go("waiter", func(p *Proc) { c.Wait(p) })
		e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
		if err := e.RunUntil(2 * Microsecond); err != nil {
			t.Fatal(err)
		}
		e.Go("unstarted", func(p *Proc) {})
		if e.LiveProcs() != 3 || e.idle != nil {
			t.Fatalf("engine %d: live procs = %d, idle coroutine left %v", i, e.LiveProcs(), e.idle != nil)
		}
		e.Close()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines after closing 200 engines = %d, baseline %d", n, base)
	}
}

// TestPanickedProcCoroutineIsReusable checks that a body's panic surfaces
// through Run's error and leaves its coroutine fit for the next proc. The
// failed engine's error is cleared by hand so the same engine can bind a
// new proc to the recycled coroutine.
func TestPanickedProcCoroutineIsReusable(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	bad := e.Go("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	c := bad.co
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `proc "bad" panicked: boom`) {
		t.Fatalf("Run error = %v, want the proc's panic", err)
	}
	if e.idle != c || !bad.Done().Fired() {
		t.Fatal("panicked proc did not finish onto the idle list")
	}
	e.err = nil
	var got []Time
	good := e.Go("good", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Microsecond)
			got = append(got, p.Now())
		}
	})
	if good.co != c {
		t.Fatal("next proc did not reuse the panicked proc's coroutine")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]Time{2 * Microsecond, 3 * Microsecond, 4 * Microsecond}) {
		t.Errorf("recycled coroutine wakeups = %v", got)
	}
}
