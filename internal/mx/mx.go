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

// Handle tracks one outstanding MX operation.
type Handle struct {
	done *sim.Completion
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
func (h *Handle) Done() *sim.Completion { return h.done }

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

// postedRecv is one NIC-resident receive entry.
type postedRecv struct {
	match uint64
	mask  uint64
	buf   *mem.Buffer
	off   int
	n     int
	h     *Handle
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
	rxQ        *sim.Queue[*packet]

	// pkts recycles packet structs, shared by every endpoint on the engine.
	pkts *sim.FreeList[packet]

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
		rxQ:     sim.NewQueue[*packet](eng, name+"/rxq"),
		pkts:    sim.FreeListOf[packet](eng),
	}
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
	eng.Go(name+"/rx", e.rxLoop)
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
	e.rxQ.Put(pk)
}

// Isend starts a non-blocking matched send of n bytes to peer.
func (e *Endpoint) Isend(p *sim.Proc, peer *Endpoint, match uint64, buf *mem.Buffer, off, n int) *Handle {
	return e.IsendCause(p, peer, match, buf, off, n, trace.RefNone)
}

// IsendCause is Isend with an explicit causal parent (the MPI-layer span
// that motivated the send).
func (e *Endpoint) IsendCause(p *sim.Proc, peer *Endpoint, match uint64, buf *mem.Buffer, off, n int, cause trace.Ref) *Handle {
	if n < 0 || peer == e {
		panic(fmt.Sprintf("mx %s: bad send (n=%d)", e.name, n))
	}
	h := &Handle{done: sim.NewCompletion(e.eng), Len: n, Match: match, ep: e}
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
	if n <= e.cfg.EagerMax {
		e.EagerSent++
		e.cEager.Inc()
		e.eagerSend(p, x, buf, off)
	} else {
		e.RndvSent++
		e.cRndv.Inc()
		e.rndvSend(p, x, buf, off)
	}
	return h
}

// eagerSend pushes an eager message through the NIC.
func (e *Endpoint) eagerSend(p *sim.Proc, x *xfer, buf *mem.Buffer, off int) {
	if x.n <= e.cfg.PIOMax {
		// Host PIO: descriptor and payload written straight to the NIC.
		at := e.pcie.Doorbell(64 + x.n)
		e.eng.At(at, func() {
			e.eng.Go(e.name+"/tx", func(np *sim.Proc) { e.txPackets(np, x, false) })
		})
		return
	}
	at := e.pcie.Doorbell(64)
	e.eng.At(at, func() {
		e.eng.Go(e.name+"/tx", func(np *sim.Proc) { e.txPackets(np, x, true) })
	})
}

// throttle pauses the calling NIC stream while the endpoint's uplink
// backlog exceeds Config.ThrottleBacklog. The sleep duration is exactly the
// excess, so the stream resumes the instant the queue is back at the
// threshold (unless other streams on the same port refilled it, in which
// case the loop waits again). A no-op when throttling is disarmed.
func (e *Endpoint) throttle(np *sim.Proc) {
	th := e.cfg.ThrottleBacklog
	if th <= 0 {
		return
	}
	stalled := false
	for {
		over := e.port.UpBacklog(np.Now()) - th
		if over <= 0 {
			return
		}
		if !stalled {
			stalled = true
			e.ThrottleStalls++
			e.cThrottle.Inc()
		}
		np.Sleep(over)
	}
}

// txPackets streams an eager message's packets through the NIC processor
// with a one-packet DMA prefetch.
func (e *Endpoint) txPackets(np *sim.Proc, x *xfer, dma bool) {
	var ready sim.Time
	if dma && x.n > 0 {
		ready, _ = e.pcie.ReadNext(np.Now(), min(e.cfg.MTU, x.n))
	}
	for off := 0; off < x.n || (x.n == 0 && off == 0); off += e.cfg.MTU {
		take := min(e.cfg.MTU, x.n-off)
		if dma && take > 0 {
			cur := ready
			if next := off + take; next < x.n {
				ready, _ = e.pcie.ReadNext(np.Now(), min(e.cfg.MTU, x.n-next))
			}
			np.SleepUntil(cur)
		}
		e.throttle(np)
		t0 := np.Now()
		e.nic.Use(np, e.cfg.TxPktTime)
		x.txCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(t0), int64(np.Now()),
			trace.Cause(x.txCause), trace.I64("bytes", int64(take)))
		e.sendPacket(x.dst, packet{
			kind:  pktEager,
			x:     x,
			off:   off,
			n:     take,
			first: off == 0,
			last:  off+take >= x.n,
			cause: x.txCause,
		})
		if x.n == 0 {
			break
		}
	}
	// Completion writeback occupies the NIC processor briefly, then the
	// eager send completes locally.
	t0 := np.Now()
	e.nic.Use(np, e.cfg.TxDoneTime)
	x.sendH.Cause = e.eng.Trc().CompleteR(e.name, "tx-done", int64(t0), int64(np.Now()),
		trace.Cause(x.txCause))
	x.sendH.done.Fire()
	x.data.Release()
}

// rndvSend performs the sender half of the internal rendezvous.
func (e *Endpoint) rndvSend(p *sim.Proc, x *xfer, buf *mem.Buffer, off int) {
	at := e.pcie.Doorbell(64)
	e.eng.At(at, func() {
		e.eng.Go(e.name+"/rts", func(np *sim.Proc) {
			// Pin the source buffer in RegChunk pieces through the internal
			// cache while the RTS travels.
			e.pin(np, buf, off, x.n)
			t0 := np.Now()
			e.nic.Use(np, e.cfg.TxPktTime)
			x.txCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(t0), int64(np.Now()),
				trace.Cause(x.txCause), trace.Str("pkt", "rts"))
			e.sendPacket(x.dst, packet{kind: pktRTS, x: x, n: 16, cause: x.txCause})
		})
	})
}

// pin charges chunked registration through the internal cache.
func (e *Endpoint) pin(np *sim.Proc, buf *mem.Buffer, off, n int) {
	chunk := e.cfg.RegChunk
	for o := off; o < off+n; {
		take := min(chunk, off+n-o)
		r := e.regs.Get(np, buf, o, take)
		e.regs.Put(np, r)
		o += take
	}
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
	return e.IrecvCause(p, match, mask, buf, off, n, trace.RefNone)
}

// IrecvCause is Irecv with an explicit causal parent (the MPI-layer span
// that posted the receive).
func (e *Endpoint) IrecvCause(p *sim.Proc, match, mask uint64, buf *mem.Buffer, off, n int, cause trace.Ref) *Handle {
	h := &Handle{done: sim.NewCompletion(e.eng), ep: e}
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
			e.consumeUnexpected(p, x, buf, off, n, h)
			return h
		}
	}
	pr := &postedRecv{match: match, mask: mask, buf: buf, off: off, n: n, h: h}
	at := e.pcie.Doorbell(64)
	e.eng.At(at, func() {
		// Close the post/arrival race: re-check unexpected messages that
		// landed while the doorbell was in flight.
		for i, x := range e.unexpected {
			if x.match&mask == match&mask {
				e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
				e.eng.Go(e.name+"/late-match", func(np *sim.Proc) {
					e.consumeUnexpected(np, x, buf, off, n, h)
				})
				return
			}
		}
		e.posted = append(e.posted, pr)
	})
	return h
}

// consumeUnexpected completes a receive from the unexpected queue: eager
// data is copied out of the host ring; a rendezvous RTS triggers the CTS.
func (e *Endpoint) consumeUnexpected(p *sim.Proc, x *xfer, buf *mem.Buffer, off, n int, h *Handle) {
	if x.n > n {
		panic(fmt.Sprintf("mx %s: %d-byte message for %d-byte receive", e.name, x.n, n))
	}
	h.Len = x.n
	h.Src = x.src
	h.Match = x.match
	if x.n <= e.cfg.EagerMax {
		finish := func(np *sim.Proc) {
			// Copy out of the unexpected ring with host memcpy economics.
			if x.unexpData != nil && x.n > 0 {
				ringCopy := e.hostMem.CopyRate.TxTime(x.n) + e.hostMem.TouchCost(buf, off, x.n)
				np.Sleep(ringCopy)
				buf.Store(off, x.unexpData[:x.n])
			}
			h.Cause = x.rxCause
			h.done.Fire()
		}
		if x.arrived == nil || x.arrived.Fired() {
			finish(p)
			return
		}
		// The descriptor matched but the payload is still arriving; finish
		// the delivery asynchronously (mx_wait semantics).
		e.eng.Go(e.name+"/late-arrival", func(np *sim.Proc) {
			x.arrived.Wait(np)
			finish(np)
		})
		return
	}
	// Rendezvous: attach the user buffer and fire the CTS.
	x.recvH = h
	x.recvBuf = buf
	x.recvOff = off
	e.eng.Go(e.name+"/cts", func(np *sim.Proc) {
		e.pin(np, buf, off, x.n)
		t0 := np.Now()
		e.nic.Use(np, e.cfg.TxPktTime)
		x.rxCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(t0), int64(np.Now()),
			trace.Cause(x.rxCause), trace.Str("pkt", "cts"))
		e.sendPacket(x.src, packet{kind: pktCTS, x: x, n: 16, cause: x.rxCause})
	})
}

// rxLoop is the NIC receive processor.
func (e *Endpoint) rxLoop(p *sim.Proc) {
	for {
		pk := e.rxQ.Get(p)
		switch pk.kind {
		case pktEager:
			e.rxEager(p, pk)
		case pktRTS:
			e.rxRTS(p, pk)
			e.pkts.Put(pk)
		case pktCTS:
			e.rxCTS(p, pk)
			e.pkts.Put(pk)
		case pktRndvData:
			e.rxRndvData(p, pk)
		case pktRndvAck:
			t0 := p.Now()
			e.nic.Use(p, e.cfg.RxPktTime)
			pk.x.sendH.Cause = e.eng.Trc().CompleteR(e.name, "rx-ack", int64(t0), int64(p.Now()),
				trace.Cause(pk.cause))
			pk.x.sendH.done.Fire()
			pk.x.data.Release()
			e.pkts.Put(pk)
		}
	}
}

// match walks the NIC posted queue (charging per-entry NIC time) and
// removes and returns the first entry matching bits. The costed walk runs
// over a snapshot (the walk takes simulated time during which receives may
// be posted); a free re-scan of the live queue afterwards catches entries
// added mid-walk, so a message never strands in the unexpected queue while
// its receive sits posted.
func (e *Endpoint) match(p *sim.Proc, bits uint64) *postedRecv {
	e.cNICAttempts.Inc()
	p.Sleep(e.cfg.MatchBase)
	n := len(e.posted)
	for i := 0; i < n && i < len(e.posted); i++ {
		pr := e.posted[i]
		e.TraversedPostedEntries++
		e.cNICWalk.Inc()
		p.Sleep(e.cfg.MatchPerEntry)
		if bits&pr.mask == pr.match&pr.mask {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			e.PostedMatchedOnNIC++
			e.cNICMatched.Inc()
			return pr
		}
	}
	return e.matchFree(bits)
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

// rxEager handles one eager data packet.
func (e *Endpoint) rxEager(p *sim.Proc, pk *packet) {
	x := pk.x
	t0 := p.Now()
	e.nic.Acquire(p, 1)
	p.Sleep(e.cfg.RxPktTime)
	if pk.first {
		if pr := e.match(p, x.match); pr != nil {
			if x.n > pr.n {
				panic(fmt.Sprintf("mx %s: %d-byte message for %d-byte receive", e.name, x.n, pr.n))
			}
			x.recvH = pr.h
			x.recvBuf = pr.buf
			x.recvOff = pr.off
			x.recvH.Len = x.n
			x.recvH.Src = x.src
			x.recvH.Match = x.match
		} else {
			// Unexpected: the descriptor is queued now (matching state is
			// visible to subsequent receive posts immediately); the payload
			// finishes arriving into the host ring asynchronously.
			e.UnexpectedArrivals++
			e.cUnexp.Inc()
			x.unexpData = make([]byte, x.n)
			x.arrived = sim.NewCompletion(e.eng)
			e.unexpected = append(e.unexpected, x)
		}
	}
	e.nic.Release(1)
	pk.cause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(t0), int64(e.eng.Now()),
		trace.Cause(pk.cause), trace.I64("bytes", int64(pk.n)))
	t := e.pcie.WriteFrom(e.eng.Now(), pk.n)
	if x.recvH != nil {
		// Matched: DMA straight into the user buffer.
		e.eng.AtArg(t, placeEager, pk)
		return
	}
	// Unexpected: DMA into the host unexpected ring.
	e.eng.AtArg(t, stashEager, pk)
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

// rxRTS handles a rendezvous request: match now or park it as unexpected.
func (e *Endpoint) rxRTS(p *sim.Proc, pk *packet) {
	x := pk.x
	t0 := p.Now()
	e.nic.Acquire(p, 1)
	p.Sleep(e.cfg.RxPktTime)
	pr := e.match(p, x.match)
	e.nic.Release(1)
	x.rxCause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(t0), int64(e.eng.Now()),
		trace.Cause(pk.cause), trace.Str("pkt", "rts"))
	if pr == nil {
		e.UnexpectedArrivals++
		e.cUnexp.Inc()
		e.unexpected = append(e.unexpected, x)
		return
	}
	if x.n > pr.n {
		panic(fmt.Sprintf("mx %s: %d-byte rendezvous for %d-byte receive", e.name, x.n, pr.n))
	}
	x.recvH = pr.h
	x.recvBuf = pr.buf
	x.recvOff = pr.off
	x.recvH.Len = x.n
	x.recvH.Src = x.src
	x.recvH.Match = x.match
	// The NIC pins the receive buffer and returns the CTS: no host on the
	// critical path ("progression thread").
	e.eng.Go(e.name+"/cts", func(np *sim.Proc) {
		e.pin(np, x.recvBuf, x.recvOff, x.n)
		t0 := np.Now()
		e.nic.Use(np, e.cfg.TxPktTime)
		x.rxCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(t0), int64(np.Now()),
			trace.Cause(x.rxCause), trace.Str("pkt", "cts"))
		e.sendPacket(x.src, packet{kind: pktCTS, x: x, n: 16, cause: x.rxCause})
	})
}

// rxCTS starts streaming rendezvous data at the sender.
func (e *Endpoint) rxCTS(p *sim.Proc, pk *packet) {
	x := pk.x
	t0 := p.Now()
	e.nic.Use(p, e.cfg.RxPktTime)
	x.txCause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(t0), int64(p.Now()),
		trace.Cause(pk.cause), trace.Str("pkt", "cts"))
	e.eng.Go(e.name+"/rndv-data", func(np *sim.Proc) {
		ready, _ := e.pcie.ReadNext(np.Now(), min(e.cfg.MTU, x.n))
		for off := 0; off < x.n; off += e.cfg.MTU {
			take := min(e.cfg.MTU, x.n-off)
			cur := ready
			if next := off + take; next < x.n {
				ready, _ = e.pcie.ReadNext(np.Now(), min(e.cfg.MTU, x.n-next))
			}
			np.SleepUntil(cur)
			e.throttle(np)
			t1 := np.Now()
			e.nic.Use(np, e.cfg.TxPktTime)
			x.txCause = e.eng.Trc().CompleteR(e.name, "tx-pkt", int64(t1), int64(np.Now()),
				trace.Cause(x.txCause), trace.I64("bytes", int64(take)))
			e.sendPacket(x.dst, packet{
				kind:  pktRndvData,
				x:     x,
				off:   off,
				n:     take,
				first: off == 0,
				last:  off+take == x.n,
				cause: x.txCause,
			})
		}
	})
}

// rxRndvData places rendezvous payload at the receiver.
func (e *Endpoint) rxRndvData(p *sim.Proc, pk *packet) {
	t0 := p.Now()
	e.nic.Use(p, e.cfg.RxPktTime)
	pk.cause = e.eng.Trc().CompleteR(e.name, "rx-pkt", int64(t0), int64(p.Now()),
		trace.Cause(pk.cause), trace.I64("bytes", int64(pk.n)))
	e.eng.AtArg(e.pcie.WriteFrom(e.eng.Now(), pk.n), placeRndv, pk)
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
