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
		r.resize(max(4, 2*len(r.buf)))
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// Grow makes room for n more items, so the next n Pushes do not
// reallocate.
func (r *Ring[T]) Grow(n int) {
	if need := r.n + n; need > len(r.buf) {
		r.resize(need)
	}
}

// resize moves the items to a fresh backing array of size slots.
func (r *Ring[T]) resize(size int) {
	grown := make([]T, size)
	k := copy(grown, r.buf[r.head:r.head+min(r.n, len(r.buf)-r.head)])
	copy(grown[k:], r.buf[:r.n-k])
	r.buf, r.head = grown, 0
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

// At returns the i-th oldest item (At(0) is Peek) without removing it; i
// must be below Len.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: Ring index out of range")
	}
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}
