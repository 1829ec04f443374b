package sim

// Ring is a FIFO on a circular buffer: Push appends at the tail, Pop
// removes from the head, and the backing array is reused however the two
// interleave. A FIFO with a standing backlog (a completion queue that never
// quite drains, a posted-receive list that is refilled as it is consumed)
// therefore stops allocating once the array has grown to the backlog's
// high-water mark, where a re-sliced or append-only slice keeps
// reallocating. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int // number of items
}

// Len returns the number of items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, doubling the backing array when it is full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// Pop removes and returns the oldest item; the ring must not be empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop on empty Ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// Peek returns the oldest item without removing it; the ring must not be
// empty.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("sim: Peek on empty Ring")
	}
	return r.buf[r.head]
}
