package sim

// Completion is a one-shot event that processes and handlers can wait on.
// Create one with NewCompletion, or embed one by value and Reset it before
// each use: a reset completion keeps its waiter array, so a recycled owner
// (an MPI request, an MX handle) waits without allocating.
type Completion struct {
	e       *Engine
	done    bool
	at      Time
	waiters []waiter
	hook    func(any)
	hookArg any
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Engine) *Completion {
	return &Completion{e: e}
}

// Reset makes c an unfired completion bound to e with no waiters and no
// hook, keeping the capacity of its waiter array.
func (c *Completion) Reset(e *Engine) {
	c.e = e
	c.done = false
	c.at = 0
	c.waiters = c.waiters[:0]
	c.hook, c.hookArg = nil, nil
}

// Fired reports whether the completion has fired.
func (c *Completion) Fired() bool { return c.done }

// FiredAt returns the virtual time the completion fired at. It is only
// meaningful once Fired reports true.
func (c *Completion) FiredAt() Time { return c.at }

// Fire marks the completion done, wakes all waiters in the order they
// began waiting, then runs the OnFire hook. Firing twice panics:
// completions are one-shot by design, so a double fire always indicates a
// protocol bug in the caller.
func (c *Completion) Fire() {
	if c.done {
		panic("sim: Completion fired twice")
	}
	c.fire()
}

func (c *Completion) fire() {
	c.done = true
	c.at = c.e.now
	for _, w := range c.waiters {
		w.wake(c.e)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	if fn := c.hook; fn != nil {
		arg := c.hookArg
		c.hook, c.hookArg = nil, nil
		fn(arg)
	}
}

// Wait blocks the process until the completion fires. It returns immediately
// if it already fired.
func (c *Completion) Wait(p *Proc) {
	if c.done {
		return
	}
	c.waiters = append(c.waiters, waiter{p: p})
	p.park()
}

// WaitThen runs fn(arg) once the completion fires: at once if it has,
// else from an event Fire schedules, in order with waiting processes.
func (c *Completion) WaitThen(fn func(any), arg any) {
	if c.done {
		fn(arg)
		return
	}
	c.waiters = append(c.waiters, waiter{fn: fn, arg: arg})
}

// OnFire sets the completion's hook: fn(arg) runs synchronously inside
// Fire, after the waiters are woken. If the completion already fired,
// fn(arg) runs at once. A completion has one hook slot; setting a second
// before the first has run panics.
func (c *Completion) OnFire(fn func(any), arg any) {
	if c.done {
		fn(arg)
		return
	}
	if c.hook != nil {
		panic("sim: Completion hook set twice")
	}
	c.hook, c.hookArg = fn, arg
}
