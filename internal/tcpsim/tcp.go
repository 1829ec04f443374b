// Package tcpsim models the offloaded TCP engine of a TOE/iWARP NIC: a
// reliable, ordered byte stream with MSS segmentation, cumulative ACKs, a
// fixed flow-control window, go-back-N retransmission (timeout or three
// duplicate ACKs), and NewReno-style congestion control (slow start,
// congestion avoidance, halving on fast retransmit, collapse to one MSS on
// timeout). Until the first loss or ECN cut the congestion window is inert
// and the flow-control window alone governs sending, so loss-free runs are
// arithmetically identical to a plain fixed-window model.
//
// The package is a passive protocol state machine: it never sleeps and holds
// no simulation resources. The NIC model that embeds a Conn decides when to
// pull segments (charging its protocol-engine time and wire occupancy) and
// feeds arriving segments back in. This split keeps the protocol logic
// independently testable, including under loss, while all timing lives in
// the NIC model (internal/iwarp).
//
// Connections carry records, not raw bytes: each send is a record (an MPA
// FPDU in iWARP's case) whose boundary survives segmentation, which is
// exactly the service MPA constructs on top of TCP. Connection established
// state is assumed (the paper pre-establishes all connections and never
// times the TCP/MPA handshake).
package tcpsim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Record is one application message (MPA FPDU) given to Send.
type Record struct {
	Meta any
	Len  int
}

// piece is the part of a record carried by one segment.
type piece struct {
	rec  *sendRecord
	n    int
	last bool
}

type sendRecord struct {
	Record
	sent int // bytes handed to segments so far
}

// Segment is one TCP segment on the wire. Data segments have Len > 0; every
// segment carries a cumulative ACK.
type Segment struct {
	Seq    uint64
	Len    int
	Ack    uint64
	pieces []piece
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	eng  *sim.Engine
	name string

	// MSS is the maximum segment payload.
	MSS int
	// HeaderBytes is the per-segment protocol header (IP + TCP).
	HeaderBytes int
	// WindowBytes is the fixed flow-control window.
	WindowBytes int
	// RTO is the base retransmission timeout, measured from the most recent
	// (re)transmission of the oldest unacknowledged byte. Each consecutive
	// timeout without forward progress doubles the effective timeout
	// (exponential backoff) up to RTOMax; any ACK that advances sndUna
	// resets it to RTO.
	RTO sim.Time
	// RTOMax caps the backed-off retransmission timeout. Zero means no cap.
	// Without backoff, sustained burst loss livelocks the connection: every
	// fixed-interval timeout re-sends the whole window into the same burst,
	// and the wire carries nothing but doomed retransmissions.
	RTOMax sim.Time

	// OnSendable, if set, is invoked whenever sending may newly be possible
	// (window opened by an ACK, retransmission armed, or data queued while
	// idle). The NIC model uses it to wake its transmit process.
	OnSendable func()

	// OnRecordAcked, if set, is invoked when the peer has acknowledged every
	// byte of a sent record. NIC models use it to generate reliable send
	// completions.
	OnRecordAcked func(meta any)

	// OnRetransmit, if set, receives the causal ref of the retransmission
	// trigger (RTO firing or third duplicate ACK) just before the rewound
	// bytes become sendable again. NIC models chain the retransmitted
	// segments from it so protocol stalls show up on the causal path.
	OnRetransmit func(trace.Ref)

	// Sender state.
	sndUna   uint64 // oldest unacknowledged sequence number
	sndNxt   uint64 // next sequence number to send
	queued   []*sendRecord
	queuedB  int                // queued-but-unsent bytes
	inflight map[uint64]Segment // sent, unacked segments by Seq
	watches  sim.Ring[ackWatch] // record-end watchpoints, ascending
	rtoEv    *sim.Event
	// rtoFn is the timeout method value, bound once at construction so each
	// armRTO avoids allocating a fresh method-value closure.
	rtoFn   func()
	dupAcks int
	backoff uint // consecutive RTO firings without forward progress
	// recovering is set while a go-back-N rewind is outstanding and cleared
	// by the next ACK that advances sndUna. One recovery per loss event, as
	// in NewReno: a full-window retransmission breeds a full window of
	// duplicate ACKs from the receiver, and without this latch every third
	// one would trigger a further window retransmission — an amplification
	// factor of window/3 segments that melts down into an ACK storm.
	recovering bool

	// Congestion control (NewReno). cwnd == 0 means no congestion signal has
	// ever been seen: the effective send window is then WindowBytes alone,
	// which keeps loss-free connections byte-identical to the model before
	// congestion control existed. The first timeout, fast retransmit, or ECN
	// cut arms cwnd, and from then on the effective window is
	// min(cwnd, WindowBytes); once additive increase grows cwnd back to
	// WindowBytes the connection is indistinguishable from the unarmed state.
	cwnd     int
	ssthresh int
	// ecnCutAt rate-limits ECN reductions to one per window of data, per RFC
	// 3168: marks echoed during the same flight all stem from one queue
	// excursion and must not compound.
	ecnCutAt uint64

	// Receiver state (go-back-N: in-order only).
	rcvNxt  uint64
	current *recvRecord

	// Stats.
	Retransmissions int64
	SegmentsSent    int64
	SegmentsRecv    int64
	BytesDelivered  int64
	RTOFired        int64
	FastRetransmits int64
	ECNCuts         int64

	cRetrans, cRTOFired, cFastRetrans *metrics.Counter
}

// ackWatch marks the stream position at which a record ends, so its full
// acknowledgment can be reported.
type ackWatch struct {
	end  uint64
	meta any
}

type recvRecord struct {
	meta any
	got  int
	want int
}

// NewConn returns a connection endpoint with iWARP-era defaults: 9000-byte
// MTU Ethernet (8960-byte MSS), 40 bytes of IP+TCP header, a 256 KB window
// and a 1 ms RTO (hardware TOEs retransmit fast) backing off to 64 ms.
func NewConn(eng *sim.Engine, name string) *Conn {
	reg := eng.Metrics()
	c := &Conn{
		eng:          eng,
		name:         name,
		MSS:          8960,
		HeaderBytes:  40,
		WindowBytes:  256 << 10,
		RTO:          sim.Millisecond,
		RTOMax:       64 * sim.Millisecond,
		inflight:     make(map[uint64]Segment),
		cRetrans:     reg.Counter("tcp.retransmissions"),
		cRTOFired:    reg.Counter("tcp.rto_fired"),
		cFastRetrans: reg.Counter("tcp.fast_retransmits"),
	}
	c.rtoFn = c.timeout
	return c
}

// Send enqueues one record of n bytes. Call NextSegment to drain.
func (c *Conn) Send(n int, meta any) {
	if n <= 0 {
		panic(fmt.Sprintf("tcpsim %s: send %d bytes", c.name, n))
	}
	wasIdle := !c.sendable()
	c.queued = append(c.queued, &sendRecord{Record: Record{Meta: meta, Len: n}})
	c.queuedB += n
	if wasIdle && c.sendable() {
		c.notify()
	}
}

func (c *Conn) notify() {
	if c.OnSendable != nil {
		c.OnSendable()
	}
}

// window returns the effective send window: the flow-control window capped
// by the congestion window once congestion control is armed.
func (c *Conn) window() int {
	if c.cwnd == 0 || c.cwnd >= c.WindowBytes {
		return c.WindowBytes
	}
	return c.cwnd
}

// sendable reports whether NextSegment would produce a segment.
func (c *Conn) sendable() bool {
	if c.queuedB == 0 {
		return false
	}
	return int(c.sndNxt-c.sndUna) < c.window()
}

// Sendable reports whether a call to NextSegment would return a segment.
func (c *Conn) Sendable() bool { return c.sendable() }

// Cwnd returns the congestion window in bytes; 0 until the first loss or
// ECN cut arms congestion control.
func (c *Conn) Cwnd() int { return c.cwnd }

// Ssthresh returns the slow-start threshold in bytes (0 until armed).
func (c *Conn) Ssthresh() int { return c.ssthresh }

// InflightBytes returns the number of sent-but-unacked bytes.
func (c *Conn) InflightBytes() int { return int(c.sndNxt - c.sndUna) }

// QueuedBytes returns bytes accepted by Send but not yet segmented.
func (c *Conn) QueuedBytes() int { return c.queuedB }

// NextSegment builds and returns the next data segment to transmit, or
// ok=false if the window is closed or nothing is queued. The caller owns
// putting it on the wire. WireBytes reports its full size.
func (c *Conn) NextSegment() (seg Segment, ok bool) {
	if !c.sendable() {
		return Segment{}, false
	}
	budget := c.MSS
	if w := c.window() - int(c.sndNxt-c.sndUna); w < budget {
		budget = w
	}
	seg = Segment{Seq: c.sndNxt, Ack: c.rcvNxt}
	for budget > 0 && len(c.queued) > 0 {
		r := c.queued[0]
		take := r.Len - r.sent
		if take > budget {
			take = budget
		}
		r.sent += take
		last := r.sent == r.Len
		seg.pieces = append(seg.pieces, piece{rec: r, n: take, last: last})
		seg.Len += take
		budget -= take
		c.queuedB -= take
		if last {
			c.queued = c.queued[1:]
		}
	}
	pos := seg.Seq
	for _, pc := range seg.pieces {
		pos += uint64(pc.n)
		if pc.last {
			c.watches.Push(ackWatch{end: pos, meta: pc.rec.Meta})
		}
	}
	c.sndNxt += uint64(seg.Len)
	c.inflight[seg.Seq] = seg
	c.SegmentsSent++
	c.armRTO()
	return seg, true
}

// WireBytes returns the on-wire size of a segment (payload plus headers).
func (c *Conn) WireBytes(seg Segment) int { return seg.Len + c.HeaderBytes }

// maxBackoffShift bounds the exponent so the shift below cannot overflow
// even with no RTOMax; 2^20 base timeouts is beyond any plausible run.
const maxBackoffShift = 20

// curRTO returns the effective (backed-off, capped) retransmission timeout.
func (c *Conn) curRTO() sim.Time {
	shift := c.backoff
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	rto := c.RTO << shift
	if c.RTOMax > 0 && rto > c.RTOMax {
		rto = c.RTOMax
	}
	return rto
}

func (c *Conn) armRTO() {
	if c.rtoEv != nil {
		c.rtoEv.Cancel()
	}
	c.rtoEv = c.eng.Schedule(c.curRTO(), c.rtoFn)
}

func (c *Conn) timeout() {
	c.rtoEv = nil
	if c.sndUna == c.sndNxt {
		return // everything acked meanwhile
	}
	c.RTOFired++
	c.cRTOFired.Inc()
	if c.backoff < maxBackoffShift {
		c.backoff++
	}
	ref := c.eng.Trc().InstantR(c.name, "tcp.rto", trace.I64("backoff", int64(c.backoff)))
	if c.OnRetransmit != nil {
		c.OnRetransmit(ref)
	}
	// Timeout: collapse to one segment and slow-start back toward half the
	// lost flight, as NewReno does after an RTO.
	c.ssthresh = c.halfFlight()
	c.cwnd = c.MSS
	c.goBackN()
}

// halfFlight returns half the current flight, floored at two segments — the
// NewReno ssthresh after any loss event (RFC 5681 §3.1).
func (c *Conn) halfFlight() int {
	h := int(c.sndNxt-c.sndUna) / 2
	if min := 2 * c.MSS; h < min {
		h = min
	}
	return h
}

// ECNCut applies the ECN congestion response: halve the window as a fast
// retransmit would, but without rewinding — the marked segment was
// delivered, only the queue it crossed was deep. At most one cut per window
// of data takes effect; the return value reports whether this call applied
// (so NIC-level rate limiters can piggyback on the same hygiene).
func (c *Conn) ECNCut() bool {
	if c.sndUna < c.ecnCutAt {
		return false
	}
	c.ecnCutAt = c.sndNxt
	c.ECNCuts++
	c.ssthresh = c.halfFlight()
	c.cwnd = c.ssthresh
	return true
}

// goBackN rewinds the send state to sndUna, re-queueing every unacked
// segment's record pieces for retransmission.
func (c *Conn) goBackN() {
	if c.sndUna == c.sndNxt {
		return
	}
	c.Retransmissions++
	c.cRetrans.Inc()
	c.recovering = true
	c.rewind()
	c.notify()
}

// rewind pushes every inflight segment's bytes back onto the record queue
// and resets sndNxt to sndUna.
func (c *Conn) rewind() {
	// Collect inflight segments in sequence order and unwind their pieces
	// back onto the front of the record queue.
	var segs []Segment
	for seq := c.sndUna; seq < c.sndNxt; {
		seg, ok := c.inflight[seq]
		if !ok {
			panic(fmt.Sprintf("tcpsim %s: hole in inflight at %d", c.name, seq))
		}
		segs = append(segs, seg)
		seq += uint64(seg.Len)
	}
	var front []*sendRecord
	for _, seg := range segs {
		delete(c.inflight, seg.Seq)
		for _, pc := range seg.pieces {
			pc.rec.sent -= pc.n
			c.queuedB += pc.n
			if len(front) == 0 || front[len(front)-1] != pc.rec {
				front = append(front, pc.rec)
			}
		}
	}
	// A partially-sent record at the head of c.queued is the same record as
	// the tail of front; avoid duplicating it.
	if len(front) > 0 && len(c.queued) > 0 && c.queued[0] == front[len(front)-1] {
		front = front[:len(front)-1]
	}
	c.queued = append(front, c.queued...)
	c.sndNxt = c.sndUna
	c.dupAcks = 0
	// Every watch at or below sndUna has already fired; the rest will be
	// re-registered when their records are re-segmented (or reported by
	// fastForward during an ACK resync).
	c.watches = sim.Ring[ackWatch]{}
}

// Input processes an arriving segment (data, ACK or both) and returns the
// records completed in order plus, for data segments, the ACK segment the
// receiver must transmit. ackNeeded is false for pure-ACK input.
func (c *Conn) Input(seg Segment) (completed []Record, ack Segment, ackNeeded bool) {
	c.SegmentsRecv++
	c.processAck(seg.Ack, seg.Len == 0)
	if seg.Len == 0 {
		return nil, Segment{}, false
	}
	if seg.Seq == c.rcvNxt {
		c.rcvNxt += uint64(seg.Len)
		completed = c.place(seg)
	}
	// In-order data advances the ACK; out-of-order data triggers an
	// immediate duplicate ACK (go-back-N receiver keeps nothing).
	return completed, Segment{Seq: c.sndNxt, Ack: c.rcvNxt}, true
}

// place consumes a data segment's pieces into the receive-side record
// assembly and returns any completed records.
func (c *Conn) place(seg Segment) []Record {
	var done []Record
	for _, pc := range seg.pieces {
		if c.current == nil {
			c.current = &recvRecord{meta: pc.rec.Meta, want: pc.rec.Len}
		}
		c.current.got += pc.n
		if pc.last {
			if c.current.got != c.current.want {
				panic(fmt.Sprintf("tcpsim %s: record reassembly %d/%d", c.name, c.current.got, c.current.want))
			}
			done = append(done, Record{Meta: c.current.meta, Len: c.current.want})
			c.BytesDelivered += int64(c.current.want)
			c.current = nil
		}
	}
	return done
}

// processAck handles a cumulative acknowledgment. pure reports whether the
// carrying segment had no data: only pure ACKs count toward fast-retransmit
// duplicate detection, as in standard TCP.
func (c *Conn) processAck(ack uint64, pure bool) {
	switch {
	case ack > c.sndUna:
		wasBlocked := !c.sendable()
		acked := int(ack - c.sndUna)
		if c.ackAligned(ack) {
			for seq := c.sndUna; seq < ack; {
				seg := c.inflight[seq]
				delete(c.inflight, seq)
				seq += uint64(seg.Len)
			}
			c.sndUna = ack
		} else {
			// The ACK falls inside a hole or mid-segment. That happens when
			// a delayed ACK for a previous transmission generation arrives
			// after a go-back-N rewind re-segmented the stream. Resync: pull
			// everything unacked back into the queue, then fast-forward past
			// the bytes the receiver provably has.
			c.rewind()
			c.fastForward(int(ack - c.sndUna))
			c.sndUna = ack
			c.sndNxt = ack
		}
		c.dupAcks = 0
		c.backoff = 0 // forward progress: the path works again
		c.recovering = false
		c.growCwnd(acked)
		c.fireWatches()
		if c.sndUna == c.sndNxt {
			if c.rtoEv != nil {
				c.rtoEv.Cancel()
				c.rtoEv = nil
			}
		} else {
			c.armRTO()
		}
		if wasBlocked && c.sendable() {
			c.notify()
		}
	case pure && ack == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAcks++
		if c.dupAcks >= 3 && !c.recovering {
			// Fast retransmit: dup ACKs prove the path still delivers, so
			// the timeout backoff is not escalated here.
			c.FastRetransmits++
			c.cFastRetrans.Inc()
			ref := c.eng.Trc().InstantR(c.name, "tcp.fast-retx")
			if c.OnRetransmit != nil {
				c.OnRetransmit(ref)
			}
			// Halve into recovery (dup ACKs prove delivery continues), so
			// the rewound window re-enters the network at half rate instead
			// of re-flooding the queue that just dropped.
			c.ssthresh = c.halfFlight()
			c.cwnd = c.ssthresh
			c.goBackN()
		}
	}
}

// growCwnd opens the congestion window on an ACK that advances sndUna:
// slow start below ssthresh (at most one MSS per ACK), additive increase
// above it (roughly one MSS per round trip), capped at the flow-control
// window — where congestion control goes quiescent again and the connection
// behaves exactly like the fixed-window model.
func (c *Conn) growCwnd(acked int) {
	if c.cwnd == 0 || c.cwnd >= c.WindowBytes {
		return
	}
	if c.cwnd < c.ssthresh {
		if acked > c.MSS {
			acked = c.MSS
		}
		c.cwnd += acked
	} else {
		grow := c.MSS * c.MSS / c.cwnd
		if grow < 1 {
			grow = 1
		}
		c.cwnd += grow
	}
	if c.cwnd > c.WindowBytes {
		c.cwnd = c.WindowBytes
	}
}

// ackAligned reports whether the cumulative ack lands exactly on current
// inflight segment boundaries starting at sndUna.
func (c *Conn) ackAligned(ack uint64) bool {
	for seq := c.sndUna; seq < ack; {
		seg, ok := c.inflight[seq]
		if !ok || seq+uint64(seg.Len) > ack {
			return false
		}
		seq += uint64(seg.Len)
	}
	return true
}

// fastForward consumes n queued bytes that the receiver already holds
// (acknowledged under a previous segmentation), completing records as
// needed.
func (c *Conn) fastForward(n int) {
	for n > 0 {
		if len(c.queued) == 0 {
			panic(fmt.Sprintf("tcpsim %s: fast-forward %d bytes past queue end", c.name, n))
		}
		r := c.queued[0]
		take := r.Len - r.sent
		if take > n {
			take = n
		}
		r.sent += take
		c.queuedB -= take
		n -= take
		if r.sent == r.Len {
			c.queued = c.queued[1:]
			if c.OnRecordAcked != nil {
				c.OnRecordAcked(r.Meta)
			}
		}
	}
}

// fireWatches reports every record whose final byte is now acknowledged.
func (c *Conn) fireWatches() {
	for c.watches.Len() > 0 && c.watches.Peek().end <= c.sndUna {
		w := c.watches.Pop()
		if c.OnRecordAcked != nil {
			c.OnRecordAcked(w.meta)
		}
	}
}
