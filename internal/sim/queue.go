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
	e       *Engine
	name    string
	items   Ring[T]
	getters Ring[*Proc]

	puts    int64
	maxLen  int
	lenTime Time // integral of queue length over time, for AvgLen
	lastAt  Time
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{e: e, name: name}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Puts returns the total number of items ever put.
func (q *Queue[T]) Puts() int64 { return q.puts }

// MaxLen returns the high-water mark of the queue length.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

func (q *Queue[T]) account() {
	q.lenTime += Time(q.Len()) * (q.e.now - q.lastAt)
	q.lastAt = q.e.now
}

// AvgLen returns the time-averaged queue length over [0, now].
func (q *Queue[T]) AvgLen() float64 {
	if q.e.now == 0 {
		return 0
	}
	q.account()
	return float64(q.lenTime) / float64(q.e.now)
}

// Put appends an item and wakes the first waiting getter, if any.
func (q *Queue[T]) Put(v T) {
	q.account()
	q.puts++
	q.items.Push(v)
	if q.Len() > q.maxLen {
		q.maxLen = q.Len()
	}
	if q.getters.Len() > 0 {
		q.getters.Pop().unpark()
	}
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.getters.Push(p)
		p.park()
	}
	q.account()
	v := q.items.Pop()
	// Cascade: if items remain and other getters wait, keep them moving.
	if q.Len() > 0 && q.getters.Len() > 0 {
		q.getters.Pop().unpark()
	}
	return v
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	q.account()
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
