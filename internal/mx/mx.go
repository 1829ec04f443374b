// Package mx models a Myricom Myri-10G NIC running the MX-10G message
// layer, in both its fabric personalities: MXoM (Myrinet protocol through a
// Myri-10G switch) and MXoE (Ethernet framing through a 10GigE switch).
//
// MX differs from the two verbs stacks in exactly the ways the paper's
// experiments expose:
//
//   - Its primitives are non-blocking matched send/receive (64-bit match
//     bits + mask), "semantics close to MPI", so MPICH-MX is a thin shim.
//   - Matching of arriving messages against posted receives runs ON THE NIC
//     processor — great for overlap, but each traversed entry costs NIC
//     time, which is why Myrinet is the worst network in the paper's
//     receive-queue test (Fig. 8) while being the best in the unexpected-
//     message test (Fig. 7, searched cheaply by the host library).
//   - No explicit user registration: an internal, chunked registration
//     cache pins buffers on demand (the paper disables it as an ablation).
//   - Large messages use an internal rendezvous at 32 KB driven entirely by
//     the NIC ("progression thread"), so the receiver CPU overhead Or stays
//     flat where iWARP and IB jump (Fig. 5).
//   - The testbed's Myri-10G cards run in PCIe x4 mode, capping bandwidth
//     near 950 MB/s (~75% of the 10G line rate), as in Figure 1.
package mx

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config is the endpoint cost model.
type Config struct {
	// EagerMax is the eager/rendezvous switch point (32 KB in MX-10G).
	EagerMax int
	// PIOMax is the largest message the host writes into the NIC directly
	// (programmed I/O), skipping the DMA-read round trip.
	PIOMax int
	// MTU is the payload carried per fabric packet.
	MTU int
	// PacketHeader is the MX protocol header per packet (route + tag).
	PacketHeader int
	// TxPktTime / RxPktTime are NIC-processor occupancy per packet.
	TxPktTime sim.Time
	RxPktTime sim.Time
	// TxDoneTime is NIC-processor occupancy after the last packet of an
	// eager message (completion writeback to the host library); it bounds
	// the message issue rate without adding to one-way latency.
	TxDoneTime sim.Time
	// MatchBase is NIC time for a match attempt; MatchPerEntry is NIC time
	// per posted-receive entry traversed (Fig. 8's driver).
	MatchBase     sim.Time
	MatchPerEntry sim.Time
	// HostSearchPerEntry is host time per unexpected-queue entry traversed
	// when a receive is posted (Fig. 7's driver; cheap for MX).
	HostSearchPerEntry sim.Time
	// PostOverhead is host time per mx_isend/mx_irecv call.
	PostOverhead sim.Time
	// PollDetect is the completion polling granularity (mx_test loop).
	PollDetect sim.Time
	// ThrottleBacklog arms sender-side congestion throttling: before
	// serializing each data packet, the NIC compares its uplink backlog
	// (bytes already booked ahead of the wire, expressed as time at line
	// rate) against this threshold and, when over, stalls the stream until
	// the excess drains. MX has no wire-level congestion signal in this
	// model — no ECN echo, no credits — so the NIC reacts to the only thing
	// it can observe: its own egress queue growing because the fabric is
	// slow. Control packets (RTS/CTS/ACK) are never throttled. Zero
	// disables throttling, keeping the transmit path byte-identical to the
	// unthrottled model.
	ThrottleBacklog sim.Time
	// RegCost prices the internal chunked registration; RegChunk is the
	// pinning granularity; RegCacheSize bounds the internal cache.
	RegCost      mem.RegCost
	RegChunk     int
	RegCacheSize int
	// PCIe is the host slot (x4 on the paper's testbed).
	PCIe pci.Config
}

// DefaultConfig approximates the Myri-10G NIC (10G-PCIE-8A-C) in x4 mode.
func DefaultConfig() Config {
	return Config{
		EagerMax:           32 << 10,
		PIOMax:             128,
		MTU:                4096,
		PacketHeader:       16,
		TxPktTime:          sim.Micros(0.50),
		TxDoneTime:         sim.Micros(1.45),
		RxPktTime:          sim.Micros(0.62),
		MatchBase:          sim.Micros(0.20),
		MatchPerEntry:      sim.Nanos(35),
		HostSearchPerEntry: sim.Nanos(6),
		PostOverhead:       sim.Micros(0.20),
		PollDetect:         sim.Micros(0.10),
		RegCost: mem.RegCost{
			Base:      sim.Micros(2),
			PerPage:   sim.Micros(1.3),
			DeregBase: sim.Micros(1),
		},
		RegChunk:     32 << 10,
		RegCacheSize: 1024,
		PCIe:         pci.PCIeX4(),
	}
}

// Handle tracks one outstanding MX operation. Isend and Irecv allocate
// one; IsendInto and IrecvInto fill one the caller owns and reuses.
type Handle struct {
	done sim.Completion
	// Len is the message length (for receives, the matched length).
	Len int
	// Src is the sending endpoint for completed receives.
	Src *Endpoint
	// Match carries the message's match bits.
	Match uint64
	// Cause is the causal ref of the NIC event that completed the
	// operation (last placed packet, completion writeback, rendezvous
	// ack), for the MPI binding to chain from. RefNone when tracing is
	// off.
	Cause trace.Ref
	ep    *Endpoint
}

// Wait blocks until the operation completes, paying poll granularity.
func (h *Handle) Wait(p *sim.Proc) {
	h.done.Wait(p)
	p.Sleep(h.ep.cfg.PollDetect)
}

// Test reports completion without blocking.
func (h *Handle) Test() bool { return h.done.Fired() }

// Done exposes the underlying completion for select-like waiting.
func (h *Handle) Done() *sim.Completion { return &h.done }

// reset makes h an unfired handle of endpoint e for a message of n bytes
// with match bits match, keeping its completion's waiter array.
func (h *Handle) reset(e *Endpoint, n int, match uint64) {
	h.done.Reset(e.eng)
	h.Len, h.Src, h.Match, h.Cause, h.ep = n, nil, match, trace.RefNone, e
}

// pktKind classifies MX wire packets.
type pktKind int

const (
	pktEager pktKind = iota
	pktRTS
	pktCTS
	pktRndvData
	pktRndvAck
)

// xfer is the shared state of one message transfer.
type xfer struct {
	src, dst  *Endpoint
	match     uint64
	n         int
	data      *mem.View // message payload; the sender's hold drops when sendH fires
	sendH     *Handle
	recvH     *Handle // nil until matched
	recvBuf   *mem.Buffer
	recvOff   int
	got       int
	unexpData []byte          // assembled payload when unexpected
	arrived   *sim.Completion // fires when an unexpected message is fully in the ring
	// txCause / rxCause carry the latest causal ref on each side of the
	// transfer (sender NIC chain, receiver NIC chain). In-memory only.
	txCause trace.Ref
	rxCause trace.Ref
}

// packet is the fabric payload. Packets come from the sending engine's
// free list (Endpoint.pkts) and go back to the receiving engine's once the
// receiver is done with them: after placement for data, after processing
// for RTS, CTS and ACK. A packet whose frame the fabric drops is left to
// the GC.
type packet struct {
	kind  pktKind
	x     *xfer
	off   int // payload bytes [off, off+n) of x.data
	n     int
	first bool
	last  bool
	// cause is the causal ref of the event that emitted / delivered this
	// packet; once the receiver's rx pass has run, that pass's ref, for the
	// deferred placement to chain from.
	cause trace.Ref
}

// postedRecv is one NIC-resident receive entry; until its doorbell lands
// it is also the doorbell event's argument.
type postedRecv struct {
	e     *Endpoint
	match uint64
	mask  uint64
	buf   *mem.Buffer
	off   int
	n     int
	h     *Handle
}

// msgOp is one NIC sequence of a message transfer, run as a chain of
// event handlers on the engine's free-listed ops: an eager or
// rendezvous-data packet stream, an RTS or CTS with the pinning before it,
// or a receive that matched an unexpected message.
type msgOp struct {
	e    *Endpoint
	x    *xfer
	kind pktKind // pktEager, pktRndvData (streams), pktRTS or pktCTS
	dma  bool    // stream payload fetched by DMA (not PIO)
	// Stream position; pinning window [off, end) of buf; or the receive
	// (end bytes at off of buf, handle h) an unexpected message matched.
	off, end int
	buf      *mem.Buffer
	h        *Handle
	ready    sim.Time // one-packet DMA prefetch
	t0       sim.Time
	stalled  bool // a throttle stall is already counted for this packet
}

// Endpoint is one MX endpoint (one NIC, one process).
type Endpoint struct {
	eng     *sim.Engine
	name    string
	cfg     Config
	hostMem *mem.Memory
	pcie    *pci.Bus
	port    *fabric.Port
	nic     *sim.Resource // the single NIC processor
	regs    *mem.RegCache

	posted     []*postedRecv
	unexpected []*xfer

	// rx is the NIC receive processor's stage, with the packet in its pass,
	// when the pass began, and the posted-queue walk (entry, snapshot).
	rx     sim.Stage[*packet]
	rxPk   *packet
	rxT0   sim.Time
	rxI    int
	rxWalk int

	// pkts recycles packets and ops msgOps, shared by every endpoint on
	// the engine.
	pkts *sim.FreeList[packet]
	ops  *sim.FreeList[msgOp]

	// Stats.
	EagerSent, RndvSent     int64
	UnexpectedArrivals      int64
	PostedMatchedOnNIC      int64
	TraversedPostedEntries  int64
	TraversedUnexpectedEnts int64
	ThrottleStalls          int64

	cEager, cRndv, cUnexp     *metrics.Counter
	cNICAttempts, cNICMatched *metrics.Counter
	cNICWalk, cHostWalk       *metrics.Counter
	cThrottle                 *metrics.Counter
}

// NewEndpoint attaches a new endpoint to the fabric.
func NewEndpoint(eng *sim.Engine, name string, hostMem *mem.Memory, net *fabric.Network, cfg Config) *Endpoint {
	e := &Endpoint{
		eng:     eng,
		name:    name,
		cfg:     cfg,
		hostMem: hostMem,
		pcie:    pci.New(eng, cfg.PCIe),
		nic:     sim.NewResource(eng, name+"/nic-proc", 1),
		pkts:    sim.FreeListOf[packet](eng),
		ops:     sim.FreeListOf[msgOp](eng),
	}
	e.rx.Init(eng, rxNext, e)
	e.regs = mem.NewRegCache(mem.NewRegTable(eng, name+"/reg", cfg.RegCost), cfg.RegCacheSize)
	e.port = net.Attach(e)
	mreg := eng.Metrics()
	e.cEager = mreg.Counter("mx.eager_sent")
	e.cRndv = mreg.Counter("mx.rndv_sent")
	e.cUnexp = mreg.Counter("mx.unexpected_arrivals")
	e.cNICAttempts = mreg.Counter("mx.nic_match_attempts")
	e.cNICMatched = mreg.Counter("mx.nic_matched")
	e.cNICWalk = mreg.Counter("mx.nic_posted_walk_entries")
	e.cHostWalk = mreg.Counter("mx.host_unexpected_walk_entries")
	e.cThrottle = mreg.Counter("mx.throttle_stalls")
	return e
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Mem returns the endpoint's host memory.
func (e *Endpoint) Mem() *mem.Memory { return e.hostMem }

// PollDetect returns the completion polling granularity.
func (e *Endpoint) PollDetect() sim.Time { return e.cfg.PollDetect }

// RegCache exposes the internal registration cache (the paper's Section 6.4
// ablation disables it).
func (e *Endpoint) RegCache() *mem.RegCache { return e.regs }

// Deliver implements fabric.Endpoint. The fabric's Corrupt mark is ignored:
// Myrinet's link-level CRC retry sits below the modeled layers, and the MX
// endpoint has no modeled protocol-engine occupancy to stall, so the only
// fault kinds that reach MX are link-level ones (flap, rate, congest) — see
// internal/faults.
func (e *Endpoint) Deliver(f *fabric.Frame) {
	pk := f.Payload.(*packet)
	pk.cause = f.Cause // chain NIC rx processing from the delivering wire hop
	e.rx.Put(pk)
}

// Isend starts a non-blocking matched send of n bytes to peer.
func (e *Endpoint) Isend(p *sim.Proc, peer *Endpoint, match uint64, buf *mem.Buffer, off, n int) *Handle {
	h := new(Handle)
	e.IsendInto(p, h, peer, match, buf, off, n, trace.RefNone)
	return h
}

// IsendInto is Isend into the caller's handle h, with an explicit causal
// parent (the MPI-layer span that motivated the send). h must not be in
// use by another operation; it is reusable once it completes.
func (e *Endpoint) IsendInto(p *sim.Proc, h *Handle, peer *Endpoint, match uint64, buf *mem.Buffer, off, n int, cause trace.Ref) {
	if n < 0 || peer == e {
		panic(fmt.Sprintf("mx %s: bad send (n=%d)", e.name, n))
	}
	h.reset(e, n, match)
	x := &xfer{src: e, dst: peer, match: match, n: n, sendH: h}
	if peer.eng == e.eng {
		x.data = buf.View(off, n)
	} else {
		// The receiver runs on another shard's engine, which would read a
		// live view while this one writes the buffer: copy now instead.
		x.data = buf.Snapshot(off, n)
	}
	post := e.eng.Now()
	p.Sleep(e.cfg.PostOverhead)
	x.txCause = e.eng.Trc().CompleteR(e.name, "doorbell", int64(post), int64(e.eng.Now()),
		trace.Cause(cause), trace.I64("bytes", int64(n)))
	op := e.ops.Get()
	op.e, op.x, op.kind = e, x, pktRTS
	if n <= e.cfg.EagerMax {
		e.EagerSent++
		e.cEager.Inc()
		op.kind = pktEager
		if n <= e.cfg.PIOMax {
			// Host PIO: descriptor and payload written straight to the NIC.
			e.eng.AtArg(e.pcie.Doorbell(64+n), rang, op)
			return
		}
		op.dma = true
	} else {
		// Rendezvous: the NIC pins the source buffer, then sends the RTS.
		e.RndvSent++
		e.cRndv.Inc()
		op.buf, op.off, op.end = buf, off, off+n
	}
	e.eng.AtArg(e.pcie.Doorbell(64), rang, op)
}

func rang(v any) {
	op := v.(*msgOp)
	if op.kind == pktRTS {
		op.e.eng.AfterArg(0, pin, op)
	} else {
		op.e.eng.AfterArg(0, stream, op)
	}
}

// stream streams message op.x's packets through the NIC processor with a
// one-packet DMA prefetch: an eager message, or rendezvous data after the
// CTS.
func stream(v any) {
	op := v.(*msgOp)
	if e, x := op.e, op.x; op.dma && x.n > 0 {
		op.ready, _ = e.pcie.ReadNext(e.eng.Now(), min(e.cfg.MTU, x.n))
	}
	op.nextPacket()
}

func (op *msgOp) nextPacket() {
	e, x := op.e, op.x
	if take := min(e.cfg.MTU, x.n-op.off); op.dma && take > 0 {
		cur := op.ready
		if next := op.off + take; next < x.n {
			op.ready, _ = e.pcie.ReadNext(e.eng.Now(), min(e.cfg.MTU, x.n-next))
		}
		e.eng.AfterArg(cur-e.eng.Now(), throttle, op)
		return
	}
	throttle(op)
}

// throttle holds stream op while the endpoint's uplink backlog exceeds
// Config.ThrottleBacklog, waiting exactly the excess each time (other
// streams on the port may refill it), then sends the packet through the
// NIC processor. A pass-through when throttling is disarmed.
func throttle(v any) {
	op := v.(*msgOp)
	e := op.e
	if th := e.cfg.ThrottleBacklog; th > 0 {
		if over := e.port.UpBacklog(e.eng.Now()) - th; over > 0 {
			if !op.stalled {
				op.stalled = true
				e.ThrottleStalls++
				e.cThrottle.Inc()
			}
			e.eng.AfterArg(over, throttle, op)
			return
		}
	}
	op.stalled = false
	op.t0 = e.eng.Now()
	e.nic.UseThen(e.cfg.TxPktTime, streamed, op)
}

// streamed puts stream op's packet on the wire and moves on; after the
// last packet, the completion writeback of an eager send occupies the NIC
// processor briefly, then the send completes locally.
func streamed(v any) {
	op := v.(*msgOp)
	e, x := op.e, op.x
	take := min(e.cfg.MTU, x.n-op.off)
	x.txCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(op.t0), int64(e.eng.Now()),
		trace.Cause(x.txCause), trace.I64("bytes", int64(take)))
	e.sendPacket(x.dst, packet{kind: op.kind, x: x, off: op.off, n: take,
		first: op.off == 0, last: op.off+take >= x.n, cause: x.txCause})
	if op.off += e.cfg.MTU; op.off < x.n {
		op.nextPacket()
	} else if op.kind == pktRndvData {
		e.ops.Put(op)
	} else {
		op.t0 = e.eng.Now()
		e.nic.UseThen(e.cfg.TxDoneTime, txDone, op)
	}
}

func txDone(v any) {
	op := v.(*msgOp)
	e, x := op.e, op.x
	x.sendH.Cause = e.eng.Trc().CompleteR(e.name, "tx-done", int64(op.t0), int64(e.eng.Now()),
		trace.Cause(x.txCause))
	x.sendH.done.Fire()
	x.data.Release()
	e.ops.Put(op)
}

// pin pins control op's window [op.off, op.end) in RegChunk pieces through
// the internal cache, then sends its RTS or CTS through the NIC processor.
func pin(v any) {
	op := v.(*msgOp)
	e := op.e
	if op.off < op.end {
		e.regs.GetThen(op.buf, op.off, min(e.cfg.RegChunk, op.end-op.off), pinned, op)
		return
	}
	op.t0 = e.eng.Now()
	e.nic.UseThen(e.cfg.TxPktTime, controlSent, op)
}

// pinned lets go of control op's chunk at once: the pin-down cache keeps
// it.
func pinned(r *mem.Region, v any) {
	op := v.(*msgOp)
	op.off += r.Len
	op.e.regs.PutThen(r, pin, op)
}

// controlSent puts control op's RTS (to the receiver) or CTS (back to the
// sender) on the wire.
func controlSent(v any) {
	op := v.(*msgOp)
	e, x := op.e, op.x
	if op.kind == pktRTS {
		x.txCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(op.t0), int64(e.eng.Now()),
			trace.Cause(x.txCause), trace.Str("pkt", "rts"))
		e.sendPacket(x.dst, packet{kind: pktRTS, x: x, n: 16, cause: x.txCause})
	} else {
		x.rxCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(op.t0), int64(e.eng.Now()),
			trace.Cause(x.rxCause), trace.Str("pkt", "cts"))
		e.sendPacket(x.src, packet{kind: pktCTS, x: x, n: 16, cause: x.rxCause})
	}
	e.ops.Put(op)
}

// sendPacket places a copy of pkt, in a packet from the free list, on the
// fabric toward dst.
func (e *Endpoint) sendPacket(dst *Endpoint, pkt packet) {
	pk := e.pkts.Get()
	*pk = pkt
	e.port.Send(&fabric.Frame{
		Src:     e.port.ID(),
		Dst:     dst.port.ID(),
		Bytes:   pk.n + e.cfg.PacketHeader,
		Payload: pk,
		Cause:   pk.cause,
	})
}

// Irecv posts a non-blocking matched receive. The host library first walks
// its unexpected queue (cheap, host-side); if nothing matches, the receive
// is handed to the NIC's posted queue.
func (e *Endpoint) Irecv(p *sim.Proc, match, mask uint64, buf *mem.Buffer, off, n int) *Handle {
	h := new(Handle)
	e.IrecvInto(p, h, match, mask, buf, off, n, trace.RefNone)
	return h
}

// IrecvInto is Irecv into the caller's handle h, with an explicit causal
// parent (the MPI-layer span that posted the receive). h must not be in
// use by another operation; it is reusable once it completes.
func (e *Endpoint) IrecvInto(p *sim.Proc, h *Handle, match, mask uint64, buf *mem.Buffer, off, n int, cause trace.Ref) {
	h.reset(e, 0, 0)
	post := e.eng.Now()
	p.Sleep(e.cfg.PostOverhead)
	e.eng.Trc().CompleteR(e.name, "doorbell", int64(post), int64(e.eng.Now()),
		trace.Cause(cause), trace.Str("op", "irecv"))
	// Host-side unexpected search.
	for i, x := range e.unexpected {
		e.TraversedUnexpectedEnts++
		e.cHostWalk.Inc()
		p.Sleep(e.cfg.HostSearchPerEntry)
		if x.match&mask == match&mask {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			if !e.claim(x, buf, off, n, h) {
				return
			}
			if x.arrived == nil || x.arrived.Fired() {
				// Copy out of the unexpected ring with host memcpy economics.
				if x.stashed() {
					p.Sleep(e.ringCopy(x, buf, off))
				}
				e.deliver(x, buf, off, h)
				return
			}
			// The descriptor matched but the payload is still arriving;
			// finish the delivery asynchronously (mx_wait semantics).
			op := e.ops.Get()
			*op = msgOp{e: e, x: x, buf: buf, off: off, h: h}
			e.eng.AfterArg(0, lateArrival, op)
			return
		}
	}
	pr := &postedRecv{e: e, match: match, mask: mask, buf: buf, off: off, n: n, h: h}
	e.eng.AtArg(e.pcie.Doorbell(64), postBell, pr)
}

// postBell lands posted receive v on the NIC. It first closes the
// post/arrival race: an unexpected message that landed while the doorbell
// was in flight is matched at once.
func postBell(v any) {
	pr := v.(*postedRecv)
	e := pr.e
	for i, x := range e.unexpected {
		if x.match&pr.mask == pr.match&pr.mask {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			op := e.ops.Get()
			*op = msgOp{e: e, x: x, buf: pr.buf, off: pr.off, end: pr.n, h: pr.h}
			e.eng.AfterArg(0, lateMatch, op)
			return
		}
	}
	e.posted = append(e.posted, pr)
}

// lateMatch completes receive op, whose doorbell matched an unexpected
// message.
func lateMatch(v any) {
	op := v.(*msgOp)
	e, x := op.e, op.x
	if !e.claim(x, op.buf, op.off, op.end, op.h) {
		e.ops.Put(op)
	} else if x.arrived == nil || x.arrived.Fired() {
		copyOut(op)
	} else {
		e.eng.AfterArg(0, lateArrival, op)
	}
}

func lateArrival(v any) { v.(*msgOp).x.arrived.WaitThen(copyOut, v) }

// copyOut copies receive op's message out of the unexpected ring with host
// memcpy economics, then completes the receive.
func copyOut(v any) {
	op := v.(*msgOp)
	if e, x := op.e, op.x; x.stashed() {
		e.eng.AfterArg(e.ringCopy(x, op.buf, op.off), delivered, op)
		return
	}
	delivered(op)
}

func delivered(v any) {
	op := v.(*msgOp)
	op.e.deliver(op.x, op.buf, op.off, op.h)
	op.e.ops.Put(op)
}

// claim binds unexpected message x to receive h (n bytes at off of buf).
// A rendezvous then proceeds on the NIC: claim attaches the buffer, starts
// the CTS and reports false. For an eager message it reports true, and
// the caller copies the message out of the unexpected ring.
func (e *Endpoint) claim(x *xfer, buf *mem.Buffer, off, n int, h *Handle) bool {
	if x.n > n {
		panic(fmt.Sprintf("mx %s: %d-byte message for %d-byte receive", e.name, x.n, n))
	}
	h.Len = x.n
	h.Src = x.src
	h.Match = x.match
	if x.n <= e.cfg.EagerMax {
		return true
	}
	x.recvH = h
	x.recvBuf = buf
	x.recvOff = off
	e.startCTS(x)
	return false
}

// startCTS has the NIC pin matched rendezvous x's receive buffer and
// return the CTS: no host on the critical path ("progression thread").
func (e *Endpoint) startCTS(x *xfer) {
	op := e.ops.Get()
	*op = msgOp{e: e, x: x, kind: pktCTS, buf: x.recvBuf, off: x.recvOff, end: x.recvOff + x.n}
	e.eng.AfterArg(0, pin, op)
}

// stashed reports whether unexpected eager message x left bytes in the
// host unexpected ring, which copying out into the receive buffer costs
// ringCopy.
func (x *xfer) stashed() bool { return x.unexpData != nil && x.n > 0 }

func (e *Endpoint) ringCopy(x *xfer, buf *mem.Buffer, off int) sim.Time {
	return e.hostMem.CopyRate.TxTime(x.n) + e.hostMem.TouchCost(buf, off, x.n)
}

// deliver stores unexpected eager message x into buf at off and completes
// receive h.
func (e *Endpoint) deliver(x *xfer, buf *mem.Buffer, off int, h *Handle) {
	if x.stashed() {
		buf.Store(off, x.unexpData[:x.n])
	}
	h.Cause = x.rxCause
	h.done.Fire()
}

// rxNext takes endpoint v's next arrived packet into the NIC receive
// processor, or leaves the stage idle. Eager data and RTS hold the
// processor through the match; CTS, rendezvous data and ACK take one pass.
func rxNext(v any) {
	e := v.(*Endpoint)
	pk, ok := e.rx.Next()
	if !ok {
		return
	}
	e.rxPk, e.rxT0 = pk, e.eng.Now()
	if pk.kind == pktEager || pk.kind == pktRTS {
		e.nic.HoldThen(e.cfg.RxPktTime, rxHeld, e)
	} else {
		e.nic.UseThen(e.cfg.RxPktTime, rxPassed, e)
	}
}

// rxHeld starts the match of an RTS or of an eager message's first
// packet: MatchBase, then a walk of the posted queue.
func rxHeld(v any) {
	e := v.(*Endpoint)
	if pk := e.rxPk; pk.kind == pktEager && !pk.first {
		e.rxMatched(nil)
		return
	}
	e.cNICAttempts.Inc()
	e.rxI, e.rxWalk = 0, -1
	e.eng.AfterArg(e.cfg.MatchBase, rxWalk, e)
}

// rxWalk charges NIC time for the next posted entry. The costed walk
// covers the entries posted when it starts; entries posted during it (the
// walk takes simulated time) are caught by a free re-scan of the live
// queue at its end, so a message never strands in the unexpected queue
// while its receive sits posted.
func rxWalk(v any) {
	e := v.(*Endpoint)
	if e.rxWalk < 0 {
		e.rxWalk = len(e.posted)
	}
	if e.rxI < e.rxWalk && e.rxI < len(e.posted) {
		e.TraversedPostedEntries++
		e.cNICWalk.Inc()
		e.eng.AfterArg(e.cfg.MatchPerEntry, rxWalked, e)
		return
	}
	e.rxMatched(e.matchFree(e.rxPk.x.match))
}

func rxWalked(v any) {
	e := v.(*Endpoint)
	if pr := e.posted[e.rxI]; e.rxPk.x.match&pr.mask == pr.match&pr.mask {
		e.posted = append(e.posted[:e.rxI], e.posted[e.rxI+1:]...)
		e.PostedMatchedOnNIC++
		e.cNICMatched.Inc()
		e.rxMatched(pr)
		return
	}
	e.rxI++
	rxWalk(e)
}

// matchFree scans the live posted queue without charging time.
func (e *Endpoint) matchFree(bits uint64) *postedRecv {
	for i, pr := range e.posted {
		if bits&pr.mask == pr.match&pr.mask {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			e.PostedMatchedOnNIC++
			e.cNICMatched.Inc()
			return pr
		}
	}
	return nil
}

// rxMatched ends the pass of the eager packet or RTS in service, which
// matched pr (nil: nothing, or not a first packet), and takes the next
// packet. An unmatched message is queued unexpected.
func (e *Endpoint) rxMatched(pr *postedRecv) {
	pk := e.rxPk
	x := pk.x
	e.nic.Release(1)
	rts := pk.kind == pktRTS
	if rts {
		x.rxCause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(e.rxT0), int64(e.eng.Now()),
			trace.Cause(pk.cause), trace.Str("pkt", "rts"))
	}
	if pk.first || rts {
		if pr != nil {
			e.matched(x, pr)
			if rts {
				e.startCTS(x)
			}
		} else {
			e.UnexpectedArrivals++
			e.cUnexp.Inc()
			if !rts {
				x.unexpData = make([]byte, x.n)
				x.arrived = sim.NewCompletion(e.eng)
			}
			e.unexpected = append(e.unexpected, x)
		}
	}
	if rts {
		e.pkts.Put(pk)
		rxNext(e)
		return
	}
	pk.cause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(e.rxT0), int64(e.eng.Now()),
		trace.Cause(pk.cause), trace.I64("bytes", int64(pk.n)))
	// Matched: DMA straight into the user buffer; else into the host
	// unexpected ring.
	place := stashEager
	if x.recvH != nil {
		place = placeEager
	}
	e.eng.AtArg(e.pcie.WriteFrom(e.eng.Now(), pk.n), place, pk)
	rxNext(e)
}

func (e *Endpoint) matched(x *xfer, pr *postedRecv) {
	if x.n > pr.n {
		what := "message"
		if x.n > e.cfg.EagerMax {
			what = "rendezvous"
		}
		panic(fmt.Sprintf("mx %s: %d-byte %s for %d-byte receive", e.name, x.n, what, pr.n))
	}
	x.recvH = pr.h
	x.recvBuf = pr.buf
	x.recvOff = pr.off
	x.recvH.Len = x.n
	x.recvH.Src = x.src
	x.recvH.Match = x.match
}

// rxPassed ends the pass of the CTS, rendezvous data or ACK in service and
// takes the next packet.
func rxPassed(v any) {
	e := v.(*Endpoint)
	pk := e.rxPk
	x := pk.x
	switch pk.kind {
	case pktCTS:
		// Start streaming rendezvous data at the sender.
		x.txCause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(e.rxT0), int64(e.eng.Now()),
			trace.Cause(pk.cause), trace.Str("pkt", "cts"))
		op := e.ops.Get()
		*op = msgOp{e: e, x: x, kind: pktRndvData, dma: true}
		e.eng.AfterArg(0, stream, op)
		e.pkts.Put(pk)
	case pktRndvData:
		pk.cause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(e.rxT0), int64(e.eng.Now()),
			trace.Cause(pk.cause), trace.I64("bytes", int64(pk.n)))
		e.eng.AtArg(e.pcie.WriteFrom(e.eng.Now(), pk.n), placeRndv, pk)
	case pktRndvAck:
		x.sendH.Cause = e.eng.Trc().CompleteR(e.name, "rx-ack", int64(e.rxT0), int64(e.eng.Now()),
			trace.Cause(pk.cause))
		x.sendH.done.Fire()
		x.data.Release()
		e.pkts.Put(pk)
	}
	rxNext(e)
}

// placeEager lands matched eager packet v in the user buffer once its host
// DMA write completes, completing the receive on the last packet.
func placeEager(v any) {
	pk := v.(*packet)
	x, e := pk.x, pk.x.dst
	x.data.CopyTo(x.recvBuf, x.recvOff+pk.off, pk.off, pk.n)
	x.got += pk.n
	if pk.last {
		x.recvH.Cause = e.eng.Trc().InstantR(e.name, "placed", trace.Cause(pk.cause))
		x.recvH.done.Fire()
	}
	e.pkts.Put(pk)
}

// stashEager lands unexpected eager packet v in the host unexpected ring
// once its host DMA write completes, marking the message arrived on the
// last packet.
func stashEager(v any) {
	pk := v.(*packet)
	x, e := pk.x, pk.x.dst
	x.data.Stash(x.unexpData, pk.off, pk.off, pk.n)
	x.got += pk.n
	if pk.last {
		x.rxCause = e.eng.Trc().InstantR(e.name, "placed", trace.Cause(pk.cause))
		x.arrived.Fire()
	}
	e.pkts.Put(pk)
}

// placeRndv lands rendezvous packet v in the user buffer once its host DMA
// write completes; the last packet completes the receive and returns the
// ACK that releases the sender's handle.
func placeRndv(v any) {
	pk := v.(*packet)
	x, e := pk.x, pk.x.dst
	x.data.CopyTo(x.recvBuf, x.recvOff+pk.off, pk.off, pk.n)
	x.got += pk.n
	if pk.last {
		placed := e.eng.Trc().InstantR(e.name, "placed", trace.Cause(pk.cause))
		x.recvH.Cause = placed
		x.recvH.done.Fire()
		e.sendPacket(x.src, packet{kind: pktRndvAck, x: x, n: 8, cause: placed})
	}
	e.pkts.Put(pk)
}
