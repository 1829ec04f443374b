package sim

// FreeList recycles the per-packet structs of the NIC models. Each engine
// owns one FreeList per struct type (see FreeListOf), shared by every
// component that runs on it, so a struct taken by a sender and given back
// by a receiver on the same engine is reused by the next send. In a world
// split across engines a struct migrates: it is taken from the sending
// engine's list and given back to the receiving engine's, each list touched
// only by its own engine.
//
// The list keeps at most freeListMax idle structs; a Put beyond that
// leaves the struct to the garbage collector, so a burst that once had many
// structs in flight does not pin them for the engine's lifetime.
type FreeList[T any] struct {
	free []*T
}

// freeListMax caps each FreeList: room for several MTU-packetized
// messages, or several TCP windows of segments, in flight at once.
const freeListMax = 1024

// freeListKey keys an engine's FreeList of *T: a zero-size type per T, so
// lists of distinct types never collide.
type freeListKey[T any] struct{}

// FreeListOf returns e's FreeList of *T, creating it on first use. Look it
// up once, when a component is built, not per packet.
func FreeListOf[T any](e *Engine) *FreeList[T] {
	key := freeListKey[T]{}
	if l, ok := e.locals[key]; ok {
		return l.(*FreeList[T])
	}
	if e.locals == nil {
		e.locals = make(map[any]any)
	}
	l := &FreeList[T]{}
	e.locals[key] = l
	return l
}

// Get returns a zeroed *T: a recycled one when the list has one, else a
// fresh allocation.
func (l *FreeList[T]) Get() *T {
	n := len(l.free) - 1
	if n < 0 {
		return new(T)
	}
	x := l.free[n]
	l.free[n] = nil
	l.free = l.free[:n]
	return x
}

// Put zeroes x (dropping every reference it holds) and keeps it for reuse
// while the list has room. The caller must hold no other reference to x.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	if len(l.free) < freeListMax {
		l.free = append(l.free, x)
	}
}
