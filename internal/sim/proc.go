//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// errProcKilled unwinds a process coroutine when the engine is closed.
var errProcKilled = errors.New("sim: proc killed")

// Proc is a cooperative simulation process. Exactly one Proc executes at any
// instant; all its blocking methods yield control back to the engine and
// resume when the corresponding virtual-time condition holds.
//
// Each Proc body runs on an iter.Pull coroutine: the engine switches into it
// with next and it switches back with yield, so a park→resume cycle is two
// direct coroutine switches rather than a goroutine hand-off through the
// scheduler. Coroutines outlive their procs (see coro); the Proc itself is
// one struct per Engine.Go, because its handle (Done) outlives the body. A
// Proc must only be used from its own body.
type Proc struct {
	e      *Engine
	id     uint64
	name   string
	fn     func(p *Proc) // the body; nil once it has run or been killed
	co     *coro         // the coroutine running the body; nil once dead
	dead   bool
	killed bool
	waking bool // a resume event is queued and has not fired yet
	done   *Completion
}

// coro is a recycled process coroutine. Its loop runs the body of the proc
// bound to it, yields once when the body has returned, and on the next
// resume runs the body of whichever proc was bound to it since. Finished
// coroutines wait on the engine's idle list (linked through idle), so
// Engine.Go reuses a coroutine — and the stack it has already grown —
// instead of creating one per process.
type coro struct {
	next  func() (struct{}, bool) // engine side: run until the proc parks or its body returns
	stop  func()                  // ends an idle coroutine (Engine.Close)
	yield func(struct{}) bool     // coroutine side: switch back to the engine
	p     *Proc                   // the bound proc; nil while idle
	idle  *coro                   // next coroutine on the engine's idle list
}

// newCoro creates a coroutine; it does not start until its first next.
func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.p.run()
			// Hand control back to dispatch, which parks this coroutine on
			// the idle list. A false yield is Close's stop: return.
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// run executes the proc's body on its coroutine; a proc killed before its
// first dispatch returns without running it.
func (p *Proc) run() {
	defer p.exit()
	fn := p.fn
	p.fn = nil
	if !p.killed {
		fn(p)
	}
}

// exit runs when the body returns or unwinds. It reports a panic (other than
// the Close kill) through the engine, marks the proc dead and fires Done.
// It is deferred directly by run, so the recover stops the unwinding there
// and the coroutine goes on to its next body as if this one had returned.
func (p *Proc) exit() {
	if r := recover(); r != nil && r != errProcKilled {
		p.e.fail(fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack()))
	}
	p.dead = true
	if p.done != nil {
		p.done.fire()
	}
}

// Name returns the process name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns the process.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Done returns a Completion that fires when the process function returns.
func (p *Proc) Done() *Completion {
	if p.done == nil {
		p.done = NewCompletion(p.e)
		if p.dead {
			p.done.fire()
		}
	}
	return p.done
}

// park yields control to the engine without scheduling a wakeup. Something
// else must eventually unpark the process (Completion.Fire, Queue.Put,
// Resource.Release or Engine.Close).
//
//simlint:noalloc
func (p *Proc) park() {
	p.e.cParked.Inc()
	p.co.yield(struct{}{}) //simlint:allow noalloc coroutine switch back to dispatch; iter.Pull's yield reuses the coroutine it was bound to and allocates nothing
	if p.killed {
		panic(errProcKilled)
	}
}

// unpark schedules the process to resume after d (zero when negative), by
// one pooled event. A process has at most one resume pending by
// construction; a second would switch into a process that is already
// running, so it is a fatal bug.
//
//simlint:noalloc
func (p *Proc) unpark(d Time) {
	if p.waking {
		panic("sim: proc " + p.name + " unparked twice")
	}
	p.waking = true
	p.e.AfterArg(d, resume, p)
}

// resume is the handler of a process's resume event.
//
//simlint:noalloc
func resume(v any) {
	p := v.(*Proc)
	p.waking = false
	p.e.dispatch(p)
}

// Sleep blocks the process for d virtual time. Negative durations count as
// zero (the process still yields, so co-scheduled events at the same
// timestamp run in deterministic order).
//
//simlint:noalloc
func (p *Proc) Sleep(d Time) {
	p.unpark(d)
	p.park()
}

// SleepUntil blocks the process until virtual time t. If t is in the past
// the process just yields once.
//
//simlint:noalloc
func (p *Proc) SleepUntil(t Time) {
	d := t - p.e.now
	p.Sleep(d)
}

// Yield lets every other event and process scheduled at the current
// timestamp run before the process continues.
//
//simlint:noalloc
func (p *Proc) Yield() { p.Sleep(0) }
