package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Microsecond != 1_000_000*Picosecond {
		t.Fatalf("microsecond = %d ps", int64(Microsecond))
	}
	if got := Micros(2.5); got != 2500*Nanosecond {
		t.Errorf("Micros(2.5) = %v", got)
	}
	if got := Time(1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros() = %v", got)
	}
	if got := Time(Second).Seconds(); got != 1.0 {
		t.Errorf("Seconds() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.5ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-2 * Microsecond, "-2us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRateTxTime(t *testing.T) {
	r := Gbps(10) // 1.25 GB/s
	if got := r.TxTime(1250); got != Microsecond {
		t.Errorf("TxTime(1250) at 10 Gbps = %v, want 1us", got)
	}
	if got := r.TxTime(1); got != 800*Picosecond {
		t.Errorf("TxTime(1) at 10 Gbps = %v, want 800ps", got)
	}
	if got := r.TxTime(0); got != 0 {
		t.Errorf("TxTime(0) = %v", got)
	}
	if got := MBpsOf(1_000_000, Second); got != 1.0 {
		t.Errorf("MBpsOf = %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*Microsecond, func() { order = append(order, 3) })
	e.Schedule(Microsecond, func() { order = append(order, 1) })
	e.Schedule(2*Microsecond, func() { order = append(order, 2) })
	// Same timestamp: FIFO by schedule order.
	e.Schedule(Microsecond, func() { order = append(order, 11) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 3*Microsecond {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(Microsecond, func() { ran = true })
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var at []Time
	for i := 1; i <= 5; i++ {
		d := Time(i) * Microsecond
		e.Schedule(d, func() { at = append(at, e.Now()) })
	}
	if err := e.RunUntil(3 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 {
		t.Fatalf("ran %d events, want 3", len(at))
	}
	if e.Now() != 3*Microsecond {
		t.Errorf("now = %v", e.Now())
	}
	// Continuing runs the rest.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 5 {
		t.Errorf("ran %d events, want 5", len(at))
	}
}

func TestRunUntilEmptyHeapAdvancesClock(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(7 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 7*Microsecond {
		t.Errorf("now = %v, want 7us", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []string
	e.Go("a", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		marks = append(marks, fmt.Sprintf("a@%v", p.Now()))
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(Microsecond)
		marks = append(marks, fmt.Sprintf("b@%v", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[b@1us a@2us]"
	if got := fmt.Sprint(marks); got != want {
		t.Errorf("marks = %v, want %v", got, want)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("live procs = %d", e.LiveProcs())
	}
}

func TestProcDoneCompletion(t *testing.T) {
	e := NewEngine()
	worker := e.Go("worker", func(p *Proc) { p.Sleep(5 * Microsecond) })
	var joined Time
	e.Go("joiner", func(p *Proc) {
		worker.Done().Wait(p)
		joined = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 5*Microsecond {
		t.Errorf("joined at %v, want 5us", joined)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e)
	bystander := e.Go("bystander", func(p *Proc) { c.Wait(p) })
	e.Go("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking proc")
	}
	if msg := err.Error(); !strings.Contains(msg, `proc "bad" panicked: boom`) {
		t.Errorf("error does not name the proc and the panic value: %.200s", msg)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs after the panic = %d, want 1 (the bystander)", e.LiveProcs())
	}
	done := bystander.Done()
	e.Close()
	if e.LiveProcs() != 0 || !done.Fired() {
		t.Errorf("bystander not unwound at Close: live procs %d, done %v", e.LiveProcs(), done.Fired())
	}
}

func TestCompletionOrder(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e)
	var woke []string
	for _, n := range []string{"x", "y", "z"} {
		name := n
		e.Go(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(Microsecond)
		c.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(woke) != "[x y z]" {
		t.Errorf("wake order = %v", woke)
	}
	if !c.Fired() || c.FiredAt() != Microsecond {
		t.Errorf("completion state: %v %v", c.Fired(), c.FiredAt())
	}
	// Waiting after fire returns immediately.
	done := false
	e.Go("late", func(p *Proc) {
		c.Wait(p)
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("late waiter did not pass fired completion")
	}
}

func TestCompletionDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e)
	c.Fire()
	defer func() {
		if recover() == nil {
			t.Error("second Fire did not panic")
		}
	}()
	c.Fire()
}

func TestCompletionOnFire(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e)
	var order []string
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		order = append(order, "waiter")
	})
	c.OnFire(func(v any) { order = append(order, v.(string)) }, "hook")
	e.Schedule(Microsecond, func() {
		c.Fire()
		order = append(order, "after-fire")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The hook runs inside Fire, before the woken waiter resumes.
	if fmt.Sprint(order) != "[hook after-fire waiter]" {
		t.Errorf("order = %v", order)
	}
	n := 0
	c.OnFire(func(any) { n++ }, nil) // already fired: immediate
	if n != 1 {
		t.Errorf("hook on a fired completion ran %d times, want 1", n)
	}
}

func TestCompletionHookSetTwicePanics(t *testing.T) {
	c := NewCompletion(NewEngine())
	c.OnFire(func(any) {}, nil)
	defer func() {
		if recover() == nil {
			t.Error("second OnFire did not panic")
		}
	}()
	c.OnFire(func(any) {}, nil)
}

// TestCompletionReset reuses one completion for many wait/fire rounds: a
// reset completion is unfired, hookless and waits without allocating.
func TestCompletionReset(t *testing.T) {
	e := NewEngine()
	var c Completion
	c.Reset(e)
	rounds, hooks := 0, 0
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < 50; i++ {
			c.OnFire(func(any) { hooks++ }, nil)
			c.Wait(p)
			if !c.Fired() || c.FiredAt() != p.Now() {
				t.Errorf("round %d: woke unfired or late", i)
			}
			rounds++
			c.Reset(e)
			if c.Fired() {
				t.Fatal("reset completion still fired")
			}
		}
	})
	e.Go("firer", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(Microsecond)
			c.Fire()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 50 || hooks != 50 || cap(c.waiters) != 1 {
		t.Errorf("rounds %d, hooks %d, waiter capacity %d; want 50, 50, 1", rounds, hooks, cap(c.waiters))
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus", 1)
	var order []string
	hold := func(name string, start, dur Time) {
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p, 1)
			order = append(order, name+"@"+p.Now().String())
			p.Sleep(dur)
			r.Release(1)
		})
	}
	hold("a", 0, 3*Microsecond)
	hold("b", Microsecond, Microsecond)
	hold("c", 2*Microsecond, Microsecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a@0ps b@3us c@4us]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestResourceHeadOfLineBlocking(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "wide", 4)
	var order []string
	e.Go("hog", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10 * Microsecond)
		r.Release(3)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(Microsecond)
		r.Acquire(p, 2) // needs 2, only 1 free: waits
		order = append(order, "big@"+p.Now().String())
		r.Release(2)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		r.Acquire(p, 1) // 1 free, but big is ahead: must wait (FIFO)
		order = append(order, "small@"+p.Now().String())
		r.Release(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[big@10us small@10us]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) failed on empty resource")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) succeeded on full resource")
	}
	r.Release(1)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) failed after release")
	}
}

// hold is a process's use of r: acquire one unit, hold it for d, release
// it.
func hold(p *Proc, r *Resource, d Time) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}

func TestResourceUse(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "svc", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.UseThen(Microsecond, func(any) { ends = append(ends, e.Now()) }, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[1us 2us 3us]"
	if got := fmt.Sprint(ends); got != want {
		t.Errorf("ends = %v, want %v", got, want)
	}
}

// TestResourceStandingBacklogReusesArray runs three processes through a
// capacity-1 resource, so two always wait and the waiter FIFO never
// drains. Its array must still be reused: ten times the cycles may not
// allocate more than a few KiB beyond the shorter run.
func TestResourceStandingBacklogReusesArray(t *testing.T) {
	run := func(cycles int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := NewEngine()
		r := NewResource(e, "svc", 1)
		for i := 0; i < 3; i++ {
			e.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
				for j := 0; j < cycles; j++ {
					hold(p, r, Nanosecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := run(1000), run(10_000)
	if long > short+16<<10 {
		t.Errorf("10000 cycles allocated %d bytes, 1000 cycles %d: the waiter array keeps growing", long, short)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 4; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, q.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Errorf("got %v", got)
	}
	if q.Puts() != 4 || q.Len() != 0 {
		t.Errorf("puts=%d len=%d", q.Puts(), q.Len())
	}
}

func TestQueueMultipleGetters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var got []string
	for _, name := range []string{"g1", "g2"} {
		name := name
		e.Go(name, func(p *Proc) {
			v := q.Get(p)
			got = append(got, fmt.Sprintf("%s:%d@%v", name, v, p.Now()))
		})
	}
	e.Schedule(Microsecond, func() { q.Put(10); q.Put(20) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[g1:10@1us g2:20@1us]"
	if fmt.Sprint(got) != want {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQueueTryGetPeek(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	q.Put("a")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Errorf("Peek = %q, %v", v, ok)
	}
	if v, ok := q.TryGet(); !ok || v != "a" {
		t.Errorf("TryGet = %q, %v", v, ok)
	}
}

func TestCloseUnwindsBlockedProcs(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	r := NewResource(e, "r", 1)
	c := NewCompletion(e)
	e.Go("q-blocked", func(p *Proc) { q.Get(p) })
	e.Go("r-holder", func(p *Proc) { r.Acquire(p, 1); p.Sleep(Second) })
	e.Go("r-blocked", func(p *Proc) { p.Sleep(Microsecond); r.Acquire(p, 1) })
	e.Go("c-blocked", func(p *Proc) { c.Wait(p) })
	if err := e.RunUntil(10 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 4 {
		t.Fatalf("live procs = %d, want 4", e.LiveProcs())
	}
	e.Close()
	if e.LiveProcs() != 0 {
		t.Errorf("live procs after close = %d", e.LiveProcs())
	}
	e.Close() // idempotent
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		e := NewEngine()
		defer e.Close()
		rng := NewRNG(7)
		q := NewQueue[int](e, "q")
		r := NewResource(e, "r", 2)
		var log []string
		for i := 0; i < 5; i++ {
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Time(rng.Intn(1000)) * Nanosecond)
					r.Acquire(p, 1)
					p.Sleep(Time(rng.Intn(500)) * Nanosecond)
					q.Put(j)
					r.Release(1)
				}
			})
		}
		e.Go("reader", func(p *Proc) {
			for k := 0; k < 100; k++ {
				v := q.Get(p)
				log = append(log, fmt.Sprintf("%d@%v", v, p.Now()))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	a, b := run(), run()
	if a != b {
		t.Error("two identical runs diverged")
	}
}

func TestRNG(t *testing.T) {
	r := NewRNG(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) != 1000 {
		t.Errorf("collisions in 1000 draws: %d unique", len(seen))
	}
	r2 := NewRNG(1)
	r3 := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r2.Uint64() != r3.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	f := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := f.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	mean := Time(0)
	g := NewRNG(3)
	const n = 10000
	for i := 0; i < n; i++ {
		mean += g.ExpTime(Microsecond) / n
	}
	if mean < Microsecond*8/10 || mean > Microsecond*12/10 {
		t.Errorf("ExpTime mean = %v, want ~1us", mean)
	}
	p := NewRNG(4).Perm(10)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 45 {
		t.Errorf("Perm is not a permutation: %v", p)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(0, func() {})
}

func TestEngineMetrics(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) { p.Sleep(Microsecond) })
	e.Go("b", func(p *Proc) { p.Sleep(2 * Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["sim.procs_started"]; got != 2 {
		t.Errorf("procs_started = %d, want 2", got)
	}
	if got := snap.Counters["sim.events_fired"]; got <= 0 {
		t.Errorf("events_fired = %d, want > 0", got)
	}
	// Dispatch conservation: every proc is dispatched once to start plus
	// once per park, so when the heap drains cleanly
	// unparked == parked + started.
	p, u := snap.Counters["sim.procs_parked"], snap.Counters["sim.procs_unparked"]
	if u != p+2 {
		t.Errorf("unparked %d != parked %d + started 2", u, p)
	}
}

func TestEventAtAndPending(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(3*Microsecond, func() {})
	if ev.At() != 3*Microsecond {
		t.Errorf("At = %v", ev.At())
	}
	e.Schedule(Microsecond, func() {})
	if e.Pending() != 2 || e.Idle() {
		t.Errorf("pending=%d idle=%v", e.Pending(), e.Idle())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Errorf("pending after cancel = %d", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Idle() {
		t.Error("not idle after run")
	}
}

func TestGoFromProcContext(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(Microsecond)
			childAt = c.Now()
		})
		p.Sleep(5 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 2*Microsecond {
		t.Errorf("child ran at %v, want 2us", childAt)
	}
}

func TestProcNames(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Go("zeta", func(p *Proc) { q.Get(p) })
	e.Go("alpha", func(p *Proc) { q.Get(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	names := e.ProcNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("proc names = %v", names)
	}
	e.Close()
	if len(e.ProcNames()) != 0 {
		t.Error("procs survive close")
	}
}
