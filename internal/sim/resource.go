package sim

import "fmt"

// Resource models a capacity-limited facility (a bus, a protocol engine, a
// DMA channel). Processes and event handlers acquire units, hold them for
// some virtual time and Release them. Waiters of both kinds share one FIFO
// with head-of-line blocking, which matches hardware arbiters: a large
// request at the head is not overtaken by smaller ones behind it.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  Ring[waiter]
	uses     *FreeList[useOp] // holds in flight (UseThen, HoldThen), from the engine
}

// waiter is a parked process, or (p nil) the continuation fn(arg) that
// AcquireThen or WaitThen left behind; n counts the units a Resource
// waiter requests.
type waiter struct {
	p   *Proc
	fn  func(any)
	arg any
	n   int
}

// wake resumes w at the current instant, by one scheduled event.
func (w waiter) wake(e *Engine) {
	if w.p != nil {
		w.p.unpark(0)
	} else {
		e.AfterArg(0, w.fn, w.arg)
	}
}

// NewResource returns a resource with the given capacity (units).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire blocks p until n units are available, then takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q acquire %d of %d", r.name, n, r.capacity))
	}
	if r.TryAcquire(n) {
		return
	}
	// Release takes the units for us before it wakes us. A parked process
	// waits on nothing else, and a second wake is fatal ("unparked
	// twice"), so the one wake-up is the grant.
	r.waiters.Push(waiter{p: p, n: n})
	p.park()
}

// AcquireThen takes n units, then runs fn(arg): at once if they are free
// and nobody waits, else from the one event that the Release granting them
// schedules, as it would wake a parked process.
func (r *Resource) AcquireThen(n int, fn func(any), arg any) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q acquire %d of %d", r.name, n, r.capacity))
	}
	if r.TryAcquire(n) {
		fn(arg)
		return
	}
	r.waiters.Push(waiter{fn: fn, arg: arg, n: n})
}

// TryAcquire takes n units if immediately available and reports success.
func (r *Resource) TryAcquire(n int) bool {
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and grants them to queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: resource %q release %d with %d in use", r.name, n, r.inUse))
	}
	r.inUse -= n
	for r.waiters.Len() > 0 && r.inUse+r.waiters.Peek().n <= r.capacity {
		w := r.waiters.Pop()
		r.inUse += w.n
		w.wake(r.e)
	}
}

// Use acquires one unit, holds it for d virtual time, then releases it. This
// is the common "service station" pattern.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}

// useOp is one UseThen or HoldThen hold in flight.
type useOp struct {
	r       *Resource
	d       Time
	release bool
	fn      func(any)
	arg     any
}

// UseThen is Use for event handlers: acquire one unit, hold it for d,
// release it, then run fn(arg), with exactly the events Use schedules.
func (r *Resource) UseThen(d Time, fn func(any), arg any) { r.hold(d, true, fn, arg) }

// HoldThen is UseThen without the release: fn(arg) runs still holding the
// unit, and the caller releases it.
func (r *Resource) HoldThen(d Time, fn func(any), arg any) { r.hold(d, false, fn, arg) }

func (r *Resource) hold(d Time, release bool, fn func(any), arg any) {
	if r.uses == nil {
		r.uses = FreeListOf[useOp](r.e)
	}
	u := r.uses.Get()
	*u = useOp{r: r, d: d, release: release, fn: fn, arg: arg}
	r.AcquireThen(1, useHold, u)
}

func useHold(v any) {
	u := v.(*useOp)
	u.r.e.AfterArg(u.d, useDone, u)
}

func useDone(v any) {
	u := v.(*useOp)
	r, release, fn, arg := u.r, u.release, u.fn, u.arg
	r.uses.Put(u)
	if release {
		r.Release(1)
	}
	fn(arg)
}
