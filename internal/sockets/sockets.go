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

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
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
}

// newPair builds the two-host world of a TCP socket pair: a cluster.IWARP
// testbed (the same XG700 10GigE switch the RNICs use) whose hosts carry
// the plain or TOE NIC that mk attaches in place of an RNIC.
func newPair(mk func(tb *cluster.Testbed, i int) Endpoint) (*cluster.Testbed, Endpoint, Endpoint) {
	var ep [2]Endpoint
	tb := cluster.Build(cluster.IWARP, 2, cluster.Options{}, func(tb *cluster.Testbed, i int) { ep[i] = mk(tb, i) })
	return tb, ep[0], ep[1]
}

// tcpEnd is what the kernel-TCP and TOE endpoints share: host i's memory
// and fabric port, the TCP connection to the peer on port 1-i, the
// reassembled stream, and the two stages the embedding endpoint runs as
// event handlers: receive, fed arrived segments, and transmit, fed kicks
// whenever TCP may have something to send.
type tcpEnd struct {
	eng    *sim.Engine
	name   string
	mem    *mem.Memory
	port   *fabric.Port // set by the embedding endpoint's fabric Attach
	dst    fabric.NodeID
	conn   *tcpsim.Conn
	rcv    *stream
	rxQ    sim.Stage[tcpsim.Segment]
	txKick sim.Stage[struct{}]

	rxSeg tcpsim.Segment // the segment the receive stage is working on
	// The transmit stage's current segment and the next one, booked ahead
	// of it (txMore): each with the time its DMA reaches the NIC.
	txCur, txNext           tcpsim.Segment
	txCurReady, txNextReady sim.Time
	txMore                  bool
}

// newTCPEnd builds host i's tcpEnd for segments of mtu bytes.
func newTCPEnd(tb *cluster.Testbed, i, mtu int) tcpEnd {
	eng, name := tb.EngOf(i), tb.Hosts[i].Name
	t := tcpEnd{
		eng:  eng,
		name: name,
		mem:  tb.Hosts[i].Mem,
		dst:  fabric.NodeID(1 - i),
		conn: tcpsim.NewConn(eng, name),
		rcv:  newStream(eng),
	}
	t.conn.MSS = mtu - 40
	return t
}

// start makes rx(arg) the receive stage and tx(arg) the transmit stage,
// kicked whenever TCP may newly send. Call it once t is in place in the
// embedding endpoint.
func (t *tcpEnd) start(rx, tx func(any), arg any) {
	t.rxQ.Init(t.eng, rx, arg)
	t.txKick.Init(t.eng, tx, arg)
	t.conn.OnSendable = t.kick
}

// kick wakes the transmit stage.
func (t *tcpEnd) kick() { t.txKick.Put(struct{}{}) }

// nextTx takes kicks until TCP has a segment to send, and makes it the
// current one. It reports false, idling the transmit stage, once the kicks
// run out first.
func (t *tcpEnd) nextTx() bool {
	for {
		if _, ok := t.txKick.Next(); !ok {
			return false
		}
		if seg, ok := t.conn.NextSegment(); ok {
			t.txCur = seg
			return true
		}
	}
}

// emitCur puts the current segment on the wire and reports whether a next
// one was booked behind it, which becomes the current one.
func (t *tcpEnd) emitCur() bool {
	t.emit(t.txCur)
	if !t.txMore {
		return false
	}
	t.txCur, t.txCurReady = t.txNext, t.txNextReady
	return true
}

// emit puts a segment on the wire to the peer.
func (t *tcpEnd) emit(seg tcpsim.Segment) {
	t.port.Send(&fabric.Frame{
		Src:     t.port.ID(),
		Dst:     t.dst,
		Bytes:   t.conn.WireBytes(seg),
		Payload: seg,
	})
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
