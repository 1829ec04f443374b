// Package pdes is the conservative parallel discrete-event runtime: it runs
// the shards of ONE simulation world — each shard a plain single-threaded
// sim.Engine owning a disjoint set of hosts, switch lines and trunks — on
// its own goroutine, synchronized at conservative time barriers derived
// from the fabric's minimum cross-shard latency (the lookahead).
//
// The protocol is the classic conservative-window scheme:
//
//	M = min over shards of (next local event time, undelivered handoff fire times)
//	B = M + lookahead            // the epoch limit
//	deliver every held handoff firing before B, in (time, src shard, seq) order
//	every shard runs its events with t < B
//
// Safety: an event executing at time u >= M can only emit cross-shard work
// firing at or after u + lookahead >= B, so once a barrier is computed no
// shard can retroactively need an event before it. When the world drains,
// every shard clock is aligned to the world's last event — the clock a
// single engine running the same world stops at — so the final clock does
// not depend on the shard count.
//
// Determinism: handoffs are merged and scheduled in (fire time, source
// shard, per-source sequence) order — never channel-arrival order — so the
// destination engine sees an identical event stream however the host OS
// scheduled the workers. That extends the repository's -j1 == -j8 identity
// guarantee to one engine == N shards; see docs/performance.md.
//
// Like internal/parallel, this package is deliberately OUTSIDE the simlint
// determinism scope (scope.ConcurrencyExempt): it is the one place where
// goroutines drive shard engines of a single world, and its safety argument
// is the barrier protocol above, not the single-thread rule.
package pdes

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// handoff is one cross-shard event: fn(arg) must run on dst's engine at
// virtual time at. seq is assigned per source shard in Post order; together
// with (at, src) it forms the deterministic merge key.
type handoff struct {
	at       sim.Time
	src, dst int
	seq      uint64
	fn       func(any)
	arg      any
}

// Runtime coordinates the shard engines of one world. It is not safe for
// concurrent use by multiple callers; Post may only be called from the
// shard goroutine currently executing src's events (or, between runs, from
// the coordinating goroutine).
type Runtime struct {
	engs []*sim.Engine
	la   sim.Time

	// outboxes[s] collects handoffs posted by shard s during the current
	// epoch; only shard s's worker touches it while engines run, and only
	// the coordinator touches it at barriers (ordered by the cmd/res
	// channel rendezvous).
	outboxes [][]handoff
	seqs     []uint64
	// pending holds undelivered handoffs, merged from the outboxes at each
	// barrier and released to destination engines in (at, src, seq) order.
	pending []handoff
}

// New builds a runtime over two or more shard engines (a one-engine world
// needs no barriers: it runs as a plain Engine.Run). lookahead must be a
// strictly positive lower bound on the virtual-time distance of every
// cross-shard interaction (internal/fabric derives it from the link config;
// see Config.Lookahead).
func New(engs []*sim.Engine, lookahead sim.Time) *Runtime {
	if len(engs) < 2 {
		panic(fmt.Sprintf("pdes: %d shard engines; a runtime needs at least 2", len(engs)))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("pdes: lookahead %v must be positive", lookahead))
	}
	return &Runtime{
		engs:     engs,
		la:       lookahead,
		outboxes: make([][]handoff, len(engs)),
		seqs:     make([]uint64, len(engs)),
	}
}

// Shards returns the shard count.
func (rt *Runtime) Shards() int { return len(rt.engs) }

// Lookahead returns the configured lookahead.
func (rt *Runtime) Lookahead() sim.Time { return rt.la }

// Post schedules fn(arg) on shard dst's engine at virtual time at. It must
// be called from shard src's event context (the fabric calls it when a
// frame crosses a shard boundary). The delivery order at dst is the
// deterministic (at, src, seq) merge order, independent of when — or on
// which OS thread — the post happened.
func (rt *Runtime) Post(src, dst int, at sim.Time, fn func(any), arg any) {
	rt.outboxes[src] = append(rt.outboxes[src], handoff{
		at: at, src: src, dst: dst, seq: rt.seqs[src], fn: fn, arg: arg,
	})
	rt.seqs[src]++
}

// Run drives every shard until no shard has pending events and no handoff
// is in flight, then returns the first shard failure by shard index (so a
// multi-shard failure reports identically at any shard count). It may be
// called again after it returns; worker goroutines live only for the
// duration of one call.
func (rt *Runtime) Run() error {
	n := len(rt.engs)
	cmd := make([]chan sim.Time, n)
	res := make([]chan error, n)
	for i := 0; i < n; i++ {
		cmd[i] = make(chan sim.Time, 1)
		res[i] = make(chan error, 1)
		go func(i int) {
			for limit := range cmd[i] {
				res[i] <- rt.engs[i].RunBefore(limit)
			}
		}(i)
	}
	defer func() {
		for i := 0; i < n; i++ {
			close(cmd[i])
		}
	}()

	for {
		m, ok := rt.horizon()
		if !ok {
			rt.alignClocks()
			return nil
		}
		limit := m + rt.la
		rt.release(limit)
		for i := 0; i < n; i++ {
			cmd[i] <- limit
		}
		var firstErr error
		for i := 0; i < n; i++ {
			if err := <-res[i]; err != nil && firstErr == nil {
				firstErr = err // lowest shard index wins
			}
		}
		rt.collect()
		if firstErr != nil {
			return firstErr
		}
	}
}

// alignClocks moves every shard clock to the latest one: the world's last
// event, where a single engine running the same world would have stopped.
// Called only once the world has drained.
func (rt *Runtime) alignClocks() {
	var last sim.Time
	for _, e := range rt.engs {
		last = max(last, e.Now())
	}
	for _, e := range rt.engs {
		e.AdvanceTo(last)
	}
}

// horizon computes M: the minimum over every shard's next event time and
// every undelivered handoff's fire time. ok is false when the world is
// drained. Called only at barriers, when no worker is running.
func (rt *Runtime) horizon() (sim.Time, bool) {
	var m sim.Time
	found := false
	for _, e := range rt.engs {
		if t, ok := e.NextEventTime(); ok && (!found || t < m) {
			m, found = t, true
		}
	}
	for i := range rt.pending {
		if t := rt.pending[i].at; !found || t < m {
			m, found = t, true
		}
	}
	return m, found
}

// release schedules every pending handoff firing strictly before limit onto
// its destination engine, in (at, src, seq) order.
func (rt *Runtime) release(limit sim.Time) {
	if len(rt.pending) == 0 {
		return
	}
	sort.Slice(rt.pending, func(i, j int) bool {
		a, b := &rt.pending[i], &rt.pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	k := 0
	for k < len(rt.pending) && rt.pending[k].at < limit {
		h := &rt.pending[k]
		rt.engs[h.dst].AtArg(h.at, h.fn, h.arg)
		k++
	}
	if k > 0 {
		rest := copy(rt.pending, rt.pending[k:])
		clear(rt.pending[rest:]) // drop fn/arg references
		rt.pending = rt.pending[:rest]
	}
}

// collect drains every shard outbox into pending. Called only at barriers.
func (rt *Runtime) collect() {
	for i, ob := range rt.outboxes {
		rt.pending = append(rt.pending, ob...)
		clear(ob)
		rt.outboxes[i] = ob[:0]
	}
}
