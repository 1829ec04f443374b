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
// Each Proc body runs as an iter.Pull coroutine: the engine switches into it
// with next and it switches back with yield, so a park→resume cycle is two
// direct coroutine switches rather than a goroutine hand-off through the
// scheduler. A Proc must only be used from its own body.
type Proc struct {
	e      *Engine
	id     uint64
	name   string
	next   func() (struct{}, bool) // engine side: run the body until it parks or returns
	yield  func(struct{}) bool     // body side: switch back to the engine
	dead   bool
	killed bool
	done   *Completion

	// ev is the process's pre-bound dispatch event: Sleep, Yield and unpark
	// push this one node (with a fresh sequence number) instead of
	// allocating an event and a closure per yield, which keeps the
	// steady-state park→resume cycle allocation-free.
	ev Event
}

// bind makes fn the process body. The coroutine does not start until the
// first dispatch; a proc killed before then returns without running fn.
func (p *Proc) bind(fn func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if !p.killed {
			fn(p)
		}
	})
}

// exit runs when the body returns or unwinds. It reports a panic (other than
// the Close kill) through the engine, marks the proc dead and fires Done.
// It is deferred directly by the body, with no wrapper frame, so a parked
// proc's coroutine stack holds only the body and the user's frames.
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
	p.yield(struct{}{}) //simlint:allow noalloc coroutine switch back to dispatch; iter.Pull's yield reuses the coroutine it was bound to and allocates nothing
	if p.killed {
		panic(errProcKilled)
	}
}

// unpark schedules the process to resume at the current virtual time.
//
//simlint:noalloc
func (p *Proc) unpark() {
	p.e.scheduleProc(p, 0)
}

// Sleep blocks the process for d virtual time. Negative durations count as
// zero (the process still yields, so co-scheduled events at the same
// timestamp run in deterministic order).
//
//simlint:noalloc
func (p *Proc) Sleep(d Time) {
	p.e.scheduleProc(p, d)
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
