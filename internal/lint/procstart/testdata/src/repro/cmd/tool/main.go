package main

import "repro/internal/sim"

// Commands are program drivers.
func main() {
	e := &sim.Engine{}
	e.Go("workload", func(*sim.Proc) {})
}
