package cluster

import "repro/internal/sim"

type Testbed struct{ Eng *sim.Engine }

// Go is the shard-aware start the drivers call: the one sanctioned caller
// in this package.
func (tb *Testbed) Go(name string, fn func(*sim.Proc)) *sim.Proc { return tb.Eng.Go(name, fn) }

func (tb *Testbed) helper() {
	tb.Eng.Go("daemon", func(*sim.Proc) {}) // want `Engine.Go outside a program driver`
}
