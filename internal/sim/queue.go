package sim

// Queue is an unbounded FIFO channel between simulation activities. Put
// never blocks and is safe from engine context (event callbacks); Get blocks
// the calling process until an item is available, and GetThen is its
// event-handler form. Items are delivered in insertion order; competing
// getters of both kinds share one FIFO and are served in arrival order.
//
// Both the item and getter FIFOs are Rings, so the backing arrays are
// reused however puts and gets interleave: the steady-state put→get cycle
// allocates nothing, with or without a standing backlog.
type Queue[T any] struct {
	e       *Engine
	name    string
	items   Ring[T]
	getters Ring[waiter]
	puts    int64
}

// NewQueue returns an empty queue for the processes and handlers of e.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{e: e, name: name}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Puts returns the total number of items ever put.
func (q *Queue[T]) Puts() int64 { return q.puts }

// Put appends an item and wakes the first waiting getter, if any.
func (q *Queue[T]) Put(v T) {
	q.puts++
	q.items.Push(v)
	if q.getters.Len() > 0 {
		q.getters.Pop().wake(q.e)
	}
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.getters.Push(waiter{p: p})
		p.park()
	}
	return q.take()
}

// take removes the oldest item; if items remain and other getters wait, it
// keeps them moving.
func (q *Queue[T]) take() T {
	v := q.items.Pop()
	if q.Len() > 0 && q.getters.Len() > 0 {
		q.getters.Pop().wake(q.e)
	}
	return v
}

// GetThen is Get for event handlers: fn(arg) runs once an item is queued,
// at once if one is, else from the event the next Put schedules, as it
// would wake a parked getter. fn takes the item with TryGet.
func (q *Queue[T]) GetThen(fn func(any), arg any) {
	if q.Len() > 0 {
		fn(arg)
		return
	}
	q.getters.Push(waiter{fn: fn, arg: arg})
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.take(), true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Peek(), true
}
