package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Event is a scheduled callback. It can be cancelled before it fires.
//
// Events live on the engine's free list between uses: a node is recycled
// when it fires if it was scheduled through a no-handle API (After, At, the
// process dispatch paths), so the steady-state schedule→fire cycle performs
// no allocation. Nodes returned by Schedule are never recycled — the
// caller's handle outlives the firing, and Cancel on a stale handle must
// stay a harmless no-op rather than cancel an unrelated reused event.
type Event struct {
	at    Time
	seq   uint64
	fn    func()    // callback; nil for dispatch and argument-carrying events
	fnArg func(any) // argument-carrying callback (AfterArg/AtArg); nil otherwise
	arg   any       // argument passed to fnArg
	proc  *Proc     // non-nil for a process's pre-bound dispatch event
	eng   *Engine   // owner, for Cancel's heap removal
	index int32     // heap index; -1 while not queued
	owned bool      // no caller handle escaped: recycle on fire
}

// Cancel prevents the event from firing and removes it from the event heap
// immediately, so mass-cancel workloads (retransmission timers) do not grow
// the heap. Cancelling an already-fired or already-cancelled event is a
// no-op.
//
//simlint:noalloc
func (ev *Event) Cancel() {
	if ev.index < 0 {
		return
	}
	e := ev.eng
	e.removeAt(int(ev.index))
	e.live--
	ev.fn = nil
	// The node is not recycled: the caller's *Event handle outlives the
	// cancellation, and a recycled node could be re-cancelled through it.
}

// At returns the virtual time the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// eventLess is the engine's total order: time, then schedule order. It is
// what makes two identical runs fire events identically.
func eventLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine. An Engine must only be used from a single thread
// of control: the goroutine that calls Run plus the process coroutines it
// switches into, which run one at a time on that goroutine's behalf and
// never concurrently with it or with each other.
//
// The event queue is a monomorphic indexed 4-ary min-heap keyed on
// (time, seq): no interface boxing, sift depth log4 n, and every node knows
// its own index so Cancel unlinks in O(log n) instead of leaving tombstones.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*Event
	free    []*Event // recycled owned nodes
	chunk   []Event  // bump-allocation block for fresh nodes
	live    int      // scheduled (uncancelled) events, kept for O(1) Pending
	procs   map[*Proc]struct{}
	current *Proc
	idle    *coro       // finished coroutines awaiting their next proc
	locals  map[any]any // per-engine FreeLists, keyed by type (see FreeListOf)
	stopped bool
	closed  bool
	err     error

	trc *trace.Tracer
	reg *metrics.Registry

	// Cached engine self-instruments (see Metrics for the names).
	cEvents, cProcs, cParked, cUnparked *metrics.Counter
}

// NewEngine returns an empty engine at virtual time zero with a fresh
// metrics registry and no tracer installed.
func NewEngine() *Engine {
	e := &Engine{procs: make(map[*Proc]struct{}), reg: metrics.NewRegistry()}
	e.cEvents = e.reg.Counter("sim.events_fired")
	e.cProcs = e.reg.Counter("sim.procs_started")
	e.cParked = e.reg.Counter("sim.procs_parked")
	e.cUnparked = e.reg.Counter("sim.procs_unparked")
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Metrics returns the engine's metrics registry. Components cache their
// instruments from it at construction time; counting is always on (it
// never consumes virtual time, so simulated results are unaffected).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Trc returns the structured tracer, nil when tracing is disabled. All
// trace.Tracer methods are nil-safe, so call sites need no guards unless
// they compute expensive labels (guard those with Trc().Enabled()).
func (e *Engine) Trc() *trace.Tracer { return e.trc }

// StartTrace creates a tracer bound to this engine's virtual clock, keeping
// at most maxEvents events (<= 0 selects trace.DefaultMaxEvents), installs
// it and returns it.
func (e *Engine) StartTrace(maxEvents int) *trace.Tracer {
	t := trace.New(func() int64 { return int64(e.now) }, maxEvents)
	e.trc = t
	return t
}

// alloc takes an event node from the free list, or carves one from the
// current bump-allocation chunk.
//
//simlint:noalloc
func (e *Engine) alloc() *Event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]Event, 64) //simlint:allow noalloc amortized 64-node bump block; steady state serves from the free list
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	ev.eng = e
	ev.index = -1
	return ev
}

// recycle returns an owned node to the free list once it has fired.
//
//simlint:noalloc
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	e.free = append(e.free, ev) //simlint:allow noalloc amortized free-list growth; steady state reuses capacity
}

// schedule queues fn at now+after and returns the node.
//
//simlint:noalloc
func (e *Engine) schedule(after Time, fn func(), owned bool) *Event {
	if e.closed {
		panic("sim: Schedule on closed engine")
	}
	if after < 0 {
		after = 0
	}
	ev := e.alloc()
	ev.at = e.now + after
	ev.seq = e.seq
	ev.fn = fn
	ev.owned = owned
	e.seq++
	e.push(ev)
	e.live++
	return ev
}

// Schedule arranges for fn to run at now+after. A negative delay is treated
// as zero. fn runs in engine context: it must not block on virtual time (use
// a Proc for that) but it may schedule further events, fire Completions, put
// to Queues and release Resources.
//
// Prefer After when the handle is not needed: it recycles the event node.
//
//simlint:noalloc
func (e *Engine) Schedule(after Time, fn func()) *Event {
	return e.schedule(after, fn, false)
}

// After is Schedule without the cancellation handle. The event node is
// recycled through the engine's free list when it fires, so the
// schedule→fire cycle allocates nothing.
//
//simlint:noalloc
func (e *Engine) After(after Time, fn func()) {
	e.schedule(after, fn, true)
}

// ScheduleAt is Schedule with an absolute timestamp, which must not be in
// the past.
//
//simlint:noalloc
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past (now %v)", at, e.now))
	}
	return e.schedule(at-e.now, fn, false)
}

// At is ScheduleAt without the cancellation handle; like After, the event
// node is recycled when it fires.
//
//simlint:noalloc
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: At(%v) in the past (now %v)", at, e.now))
	}
	e.schedule(at-e.now, fn, true)
}

// AfterArg is After for an argument-carrying callback: fn(arg) runs at
// now+after. Passing the state as an argument lets per-event hot paths reuse
// one long-lived fn instead of capturing fresh state in a closure per event —
// converting a pointer-shaped arg (a *Frame, say) to any does not allocate,
// while building a capturing func literal does.
//
//simlint:noalloc
func (e *Engine) AfterArg(after Time, fn func(any), arg any) {
	ev := e.schedule(after, nil, true)
	ev.fnArg = fn
	ev.arg = arg
}

// AtArg is AfterArg with an absolute timestamp, which must not be in the
// past. It is the zero-allocation form of At for per-frame delivery paths:
// the callback is built once at wiring time and the frame rides along as the
// argument.
//
//simlint:noalloc
func (e *Engine) AtArg(at Time, fn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: AtArg(%v) in the past (now %v)", at, e.now))
	}
	ev := e.schedule(at-e.now, nil, true)
	ev.fnArg = fn
	ev.arg = arg
}

// scheduleProc queues p's pre-bound dispatch event at now+after. Every
// process owns exactly one dispatch node, reused in place across parks, so
// the park→unpark cycle allocates nothing. A parked process has at most one
// dispatch pending by construction; a second one would switch into a
// process that is already running, so it is a fatal bug.
//
//simlint:noalloc
func (e *Engine) scheduleProc(p *Proc, after Time) {
	if e.closed {
		panic("sim: Schedule on closed engine")
	}
	if after < 0 {
		after = 0
	}
	ev := &p.ev
	if ev.index >= 0 {
		panic("sim: proc " + p.name + " unparked twice")
	}
	ev.at = e.now + after
	ev.seq = e.seq
	e.seq++
	e.push(ev)
	e.live++
}

// push inserts ev into the 4-ary heap.
//
//simlint:noalloc
func (e *Engine) push(ev *Event) {
	e.heap = append(e.heap, ev) //simlint:allow noalloc amortized heap growth; steady state reuses capacity
	e.siftUp(len(e.heap)-1, ev)
}

// siftUp places ev at index i or above, shifting larger parents down.
func (e *Engine) siftUp(i int, ev *Event) {
	h := e.heap
	for i > 0 {
		pi := (i - 1) >> 2
		p := h[pi]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = pi
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown places ev at index i or below, pulling the smallest child up.
func (e *Engine) siftDown(i int, ev *Event) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, min := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], min) {
				m, min = j, h[j]
			}
		}
		if !eventLess(min, ev) {
			break
		}
		h[i] = min
		min.index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	ev.index = -1
	return ev
}

// removeAt unlinks the event at heap index i (the Cancel sift-out path).
func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if i < n {
		e.siftDown(i, last)
		if last.index == int32(i) {
			e.siftUp(i, last)
		}
	}
	ev.index = -1
}

// Run executes events until none remain or Stop is called. It returns the
// first process failure, if any. Processes still blocked when the event heap
// drains simply remain parked; use Close to unwind them.
//
//simlint:noalloc
func (e *Engine) Run() error { return e.runThrough(maxTime, "Run") }

// maxTime is the latest representable instant: Run's inclusive bound.
const maxTime Time = math.MaxInt64

// NextEventTime returns the timestamp of the earliest pending event, or
// ok=false when the event heap is empty. It is the peek the conservative
// parallel runtime (internal/pdes) uses to compute the global barrier.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// RunBefore executes every event scheduled strictly before t. The clock
// stays at the last event fired — exactly where Run would leave it — so an
// epoch-driven caller (internal/pdes steps each shard engine once per
// barrier) ends with the clock a single-engine run would have. Unlike
// RunUntil it schedules no stop event, so a step costs nothing beyond the
// events themselves.
//
//simlint:noalloc
func (e *Engine) RunBefore(t Time) error { return e.runThrough(t-Picosecond, "RunBefore") }

// AdvanceTo moves the clock forward to t (never backward). It is for
// drained engines only: internal/pdes aligns every shard clock to the
// world's last event once the run is over.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// runThrough is the event loop shared by Run and RunBefore: it fires events
// at or before last until the heap drains, Stop is called or a process
// fails.
//
//simlint:noalloc
func (e *Engine) runThrough(last Time, caller string) error {
	if e.closed {
		return fmt.Errorf("sim: %s on closed engine", caller) //simlint:allow noalloc fatal misuse path; the run never starts
	}
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.err == nil && e.heap[0].at <= last {
		ev := e.popMin()
		if ev.at < e.now {
			return fmt.Errorf("sim: time went backwards: %v < %v", ev.at, e.now) //simlint:allow noalloc fatal corruption path; the run aborts
		}
		e.now = ev.at
		e.live--
		e.cEvents.Inc()
		if p := ev.proc; p != nil {
			e.dispatch(p)
			continue
		}
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		if ev.owned {
			e.recycle(ev)
		}
		if fn != nil {
			fn() //simlint:allow noalloc the callback's allocations are charged to whoever scheduled it, not to the fire path
		} else {
			fnArg(arg) //simlint:allow noalloc the callback's allocations are charged to whoever scheduled it, not to the fire path
		}
	}
	return e.err
}

// RunFor runs the engine for at most d virtual time.
func (e *Engine) RunFor(d Time) error { return e.RunUntil(e.now + d) }

// RunUntil runs the engine until virtual time t (inclusive of events at t).
func (e *Engine) RunUntil(t Time) error {
	stop := e.Schedule(t-e.now, func() { e.Stop() })
	err := e.Run()
	stop.Cancel()
	if e.now < t && err == nil {
		// Event heap drained early; advance the clock to the requested time.
		e.now = t
	}
	return err
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return len(e.heap) == 0 }

// Pending returns the number of scheduled (uncancelled) events. It is O(1):
// the engine maintains a live-event counter across Schedule, Cancel and
// fire instead of scanning the heap.
func (e *Engine) Pending() int { return e.live }

// LiveProcs returns the number of processes that have been started and have
// not yet finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// fail records a fatal simulation error and stops the run loop.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Close terminates every live process by unwinding its body, ends every
// idle coroutine, then marks the engine unusable. It must not be called
// from process context. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	if e.current != nil {
		panic("sim: Close called from process context")
	}
	defer func() { e.closed = true }()
	// Parked processes are suspended in park's yield; not-yet-started ones
	// have a coroutine that has not run their body. Killing dispatches each
	// once with the killed flag set: a parked proc's yield returns into a
	// panic with errProcKilled, which Proc.exit recovers, and an unstarted
	// one skips its body. Either way the coroutine ends up idle. Snapshot
	// and sort once — re-scanning the map for the minimum id per kill is
	// O(procs^2), which multi-switch worlds with tens of thousands of QP
	// processes turn from invisible into seconds of teardown per world. A
	// dying proc cannot spawn or wake others (completions only schedule
	// events), so the snapshot stays complete.
	live := make([]*Proc, 0, len(e.procs))
	for q := range e.procs {
		live = append(live, q)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		if _, ok := e.procs[p]; !ok {
			continue
		}
		p.killed = true
		e.dispatch(p)
		if _, still := e.procs[p]; still {
			panic(fmt.Sprintf("sim: proc %q survived kill", p.name))
		}
	}
	if len(e.procs) > 0 {
		panic(fmt.Sprintf("sim: %d procs survived Close", len(e.procs)))
	}
	// Every coroutine is idle now; stop ends each one's loop.
	for c := e.idle; c != nil; c = c.idle {
		c.stop()
	}
	e.idle = nil
}

// dispatch switches into p's coroutine and returns when p parks again or
// its body returns. It is the only way process code ever runs. A finished
// proc hands its coroutine to the idle list for the next Go.
//
//simlint:noalloc
func (e *Engine) dispatch(p *Proc) {
	prev := e.current
	e.current = p
	e.cUnparked.Inc()
	c := p.co
	c.next() //simlint:allow noalloc coroutine switch into the proc; iter.Pull's next resumes a coroutine created once and allocates nothing
	e.current = prev
	if p.dead {
		delete(e.procs, p)
		p.co, c.p = nil, nil
		c.idle, e.idle = e.idle, c
	}
}

// Go starts a new process running fn. The process begins executing at the
// current virtual time (after already-scheduled events at this timestamp).
// It is safe to call from engine context or process context. The body runs
// on an idle coroutine when the engine has one, else on a new one.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		e:    e,
		id:   e.seq, // unique, monotone: reuse the event sequence counter
		name: name,
		fn:   fn,
	}
	p.ev.proc = p
	p.ev.eng = e
	p.ev.index = -1
	c := e.idle
	if c != nil {
		e.idle, c.idle = c.idle, nil
	} else {
		c = newCoro()
	}
	c.p, p.co = p, c
	e.procs[p] = struct{}{}
	e.cProcs.Inc()
	e.scheduleProc(p, 0)
	return p
}

// ProcNames returns the names of all live processes, sorted; a debugging
// aid for diagnosing deadlocks (live processes after Run returns are
// blocked on conditions that can no longer occur).
func (e *Engine) ProcNames() []string {
	names := make([]string, 0, len(e.procs))
	for p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
