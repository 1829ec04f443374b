package sockets

import "repro/internal/sim"

// Tests start their own programs.
func helper(e *sim.Engine) { e.Go("prog", func(*sim.Proc) {}) }
