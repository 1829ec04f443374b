package sim

// Completion is a one-shot event that processes and handlers can wait on.
// It may carry a value. Create completions with NewCompletion.
type Completion struct {
	e       *Engine
	done    bool
	at      Time
	value   any
	waiters []waiter
	subs    []func()
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Engine) *Completion {
	return &Completion{e: e}
}

// Fired reports whether the completion has fired.
func (c *Completion) Fired() bool { return c.done }

// FiredAt returns the virtual time the completion fired at. It is only
// meaningful once Fired reports true.
func (c *Completion) FiredAt() Time { return c.at }

// Value returns the value passed to FireValue, or nil.
func (c *Completion) Value() any { return c.value }

// Fire marks the completion done and wakes all waiters, in the order they
// began waiting. Firing twice panics: completions are one-shot by design, so
// a double fire always indicates a protocol bug in the caller.
func (c *Completion) Fire() { c.FireValue(nil) }

// FireValue is Fire with an attached value.
func (c *Completion) FireValue(v any) {
	if c.done {
		panic("sim: Completion fired twice")
	}
	c.value = v
	c.fire()
}

func (c *Completion) fire() {
	c.done = true
	c.at = c.e.now
	for _, w := range c.waiters {
		w.wake(c.e)
	}
	c.waiters = nil
	for _, fn := range c.subs {
		fn()
	}
	c.subs = nil
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

// OnFire registers fn to run (in engine context) when the completion fires.
// If it already fired, fn runs immediately.
func (c *Completion) OnFire(fn func()) {
	if c.done {
		fn()
		return
	}
	c.subs = append(c.subs, fn)
}
