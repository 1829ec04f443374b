package sockets

import "repro/internal/sim"

type stack struct{ eng *sim.Engine }

func (s *stack) start() {
	s.eng.Go("rx", s.loop) // want `Engine.Go outside a program driver`
	s.eng.AfterArg(0, s.handle, nil)
	(&sim.Other{}).Go("not a process")
}

func (s *stack) loop(p *sim.Proc) {}

func (s *stack) handle(any) {}

// A method value starts a process as surely as a call does.
var spawn = (*sim.Engine).Go // want `Engine.Go outside a program driver`
