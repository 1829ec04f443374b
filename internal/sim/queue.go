package sim

// Queue is an unbounded FIFO channel between simulation activities. Put
// never blocks and is safe from engine context (event callbacks); Get blocks
// the calling process until an item is available. Items are delivered in
// insertion order; competing getters are served in arrival order.
//
// Both the item and getter FIFOs are Rings, so the backing arrays are
// reused however puts and gets interleave: the steady-state put→get cycle
// allocates nothing, with or without a standing backlog.
type Queue[T any] struct {
	name    string
	items   Ring[T]
	getters Ring[*Proc]
	puts    int64
}

// NewQueue returns an empty queue for the processes of e. The queue keeps
// no clock: a woken getter resumes through its own process's engine.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{name: name}
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
		q.getters.Pop().unpark(0)
	}
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.getters.Push(p)
		p.park()
	}
	v := q.items.Pop()
	// Cascade: if items remain and other getters wait, keep them moving.
	if q.Len() > 0 && q.getters.Len() > 0 {
		q.getters.Pop().unpark(0)
	}
	return v
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Peek(), true
}
