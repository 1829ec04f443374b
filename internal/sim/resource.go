package sim

import "fmt"

// Resource models a capacity-limited facility (a bus, a protocol engine, a
// DMA channel). Processes Acquire units, hold them for some virtual time and
// Release them. Waiters are served strictly FIFO with head-of-line blocking,
// which matches hardware arbiters: a large request at the head is not
// overtaken by smaller ones behind it.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  Ring[resWaiter]

	// Utilization bookkeeping.
	busyTime  Time // integral of (inUse>0)
	lastBusy  Time
	everyBusy bool
}

type resWaiter struct {
	p *Proc
	n int
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
	r.waiters.Push(resWaiter{p, n})
	for {
		p.park()
		// The releaser granted us our units before unparking, so the head
		// check below tells us whether this wakeup was really ours.
		if r.granted(p) {
			return
		}
	}
}

// granted reports whether p's waiter entry has been satisfied and removed.
func (r *Resource) granted(p *Proc) bool {
	for i := range r.waiters.Len() {
		if r.waiters.At(i).p == p {
			return false
		}
	}
	return true
}

func (r *Resource) take(n int) {
	if r.inUse == 0 {
		r.lastBusy = r.e.now
		r.everyBusy = true
	}
	r.inUse += n
}

// TryAcquire takes n units if immediately available and reports success.
func (r *Resource) TryAcquire(n int) bool {
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.take(n)
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
	if r.inUse == 0 && r.everyBusy {
		r.busyTime += r.e.now - r.lastBusy
	}
	for r.waiters.Len() > 0 && r.inUse+r.waiters.Peek().n <= r.capacity {
		w := r.waiters.Pop()
		r.take(w.n)
		w.p.unpark()
	}
}

// Use acquires one unit, holds it for d virtual time, then releases it. This
// is the common "service station" pattern.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}

// Utilization returns the fraction of the elapsed virtual time [0, now] the
// resource spent with at least one unit in use.
func (r *Resource) Utilization() float64 {
	busy := r.busyTime
	if r.inUse > 0 {
		busy += r.e.now - r.lastBusy
	}
	if r.e.now == 0 {
		return 0
	}
	return float64(busy) / float64(r.e.now)
}
