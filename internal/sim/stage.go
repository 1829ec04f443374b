package sim

// Stage is a hardware stage serving a FIFO of work items one at a time: the
// event-handler form of a process looping on Queue.Get. Put wakes an idle
// stage with one event at the current instant, as the process's wake-up
// would; the handler takes items with Next, synchronously while any are
// queued (as a Get on a non-empty queue), and Next idles the stage once
// the FIFO is empty. The zero value is unusable until Init.
type Stage[T any] struct {
	e     *Engine
	items Ring[T]
	busy  bool
	fn    func(any)
	arg   any
}

// Init binds the stage to e with handler fn(arg).
func (s *Stage[T]) Init(e *Engine, fn func(any), arg any) {
	s.e, s.fn, s.arg = e, fn, arg
}

// Put queues v and wakes the handler if the stage is idle.
func (s *Stage[T]) Put(v T) {
	s.items.Push(v)
	if !s.busy {
		s.busy = true
		s.e.AfterArg(0, s.fn, s.arg)
	}
}

// Next takes the oldest item, or reports false and idles the stage when
// none is queued.
func (s *Stage[T]) Next() (T, bool) {
	if s.items.Len() == 0 {
		s.busy = false
		var zero T
		return zero, false
	}
	return s.items.Pop(), true
}
