// Package sockets implements the stream-socket stacks the paper's Section 7
// names as future work ("we intend to extend our study to include uDAPL,
// sockets, and applications"), covering the three ways 2006-era systems ran
// the sockets API over these fabrics:
//
//   - HostTCP: conventional kernel TCP/IP on a plain 10GigE NIC. Every
//     packet costs host CPU (interrupt, protocol processing, checksum) and
//     every byte is copied twice per side — the "Ethernet" half of the
//     Ethernet-Ethernot gap the paper's introduction motivates.
//   - TOE: the same sockets API with TCP offloaded to the NIC (the NE010's
//     "IPv4 TOE and NIC acceleration"): per-packet work moves off the host,
//     one copy per side remains (user <-> socket buffer).
//   - SDP: Sockets Direct Protocol over the RDMA verbs providers (the
//     NetEffect RNIC "can be accessed using ... SDP"): small sends ride a
//     buffered (bcopy) channel, large sends switch to zero-copy rendezvous
//     RDMA writes.
//
// All three expose the same blocking byte-stream API (Send/Recv), so the
// comparison benchmark in internal/bench measures exactly the API the
// paper's follow-up study would have.
package sockets

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Endpoint is one side of a connected byte-stream socket.
type Endpoint interface {
	// Send writes [off, off+n) of buf to the stream, blocking until the
	// bytes are accepted (copied out of the user buffer or, for zero-copy
	// paths, transferred).
	Send(pr *sim.Proc, buf *mem.Buffer, off, n int)
	// Recv blocks until exactly n bytes are available and copies them into
	// [off, off+n) of buf.
	Recv(pr *sim.Proc, buf *mem.Buffer, off, n int)
	// Name identifies the stack for reporting.
	Name() string
	// Mem returns the endpoint's host memory, for allocating test buffers.
	Mem() *mem.Memory
}

// stream is the receive-side reassembly shared by the implementations: a
// FIFO of arrived copy-on-write payload views, a cursor into the oldest
// one, and blocked readers. Bytes stay in the sender's buffer (or are
// frozen out of it, if the sender overwrites them first) until a reader
// places them.
type stream struct {
	eng     *sim.Engine
	views   sim.Ring[*mem.View]
	head    int // bytes of views.Peek() already taken
	n       int // buffered bytes
	waiters sim.Ring[waiter]
}

type waiter struct {
	need int
	c    *sim.Completion
}

func newStream(eng *sim.Engine) *stream { return &stream{eng: eng} }

// push appends a payload view and wakes readers whose demand is now met.
func (s *stream) push(v *mem.View) {
	s.views.Push(v)
	s.n += v.Len()
	for s.waiters.Len() > 0 && s.n >= s.waiters.Peek().need {
		s.waiters.Pop().c.Fire()
	}
}

// await blocks p until n bytes are buffered.
func (s *stream) await(p *sim.Proc, n int) {
	if s.n >= n && s.waiters.Len() == 0 {
		return
	}
	w := waiter{need: n, c: sim.NewCompletion(s.eng)}
	s.waiters.Push(w)
	w.c.Wait(p)
}

// take places the next n buffered bytes at [off, off+n) of buf.
func (s *stream) take(buf *mem.Buffer, off, n int) {
	if s.n < n {
		panic(fmt.Sprintf("sockets: take %d of %d buffered", n, s.n))
	}
	s.n -= n
	for n > 0 {
		v := s.views.Peek()
		c := min(v.Len()-s.head, n)
		v.CopyTo(buf, off, s.head, c)
		off, n, s.head = off+c, n-c, s.head+c
		if s.head == v.Len() {
			s.views.Pop()
			s.head = 0
		}
	}
}

// Len returns the number of buffered bytes.
func (s *stream) Len() int { return s.n }
