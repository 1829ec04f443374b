package ib

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// pktKind classifies an IB packet.
type pktKind int

const (
	pktData    pktKind = iota // RDMA Write, Send, or RDMA Read Response data
	pktReadReq                // RDMA Read Request
	pktAck                    // transport ACK (one per message)
)

// packet is one IB packet on the fabric. Packets come from the engine's
// free list (HCA.pkts) and go back to it once the receiver is done with
// them: after placement for data, after processing for ACKs and read
// requests. A packet whose frame the fabric drops is left to the GC.
type packet struct {
	dstQPN int
	kind   pktKind
	op     verbs.Op  // OpWrite or OpSend for pktData
	data   *mem.View // the message payload; this packet carries [voff, voff+n)
	voff   int
	n      int
	offset int
	stag   mem.RKey
	first  bool
	last   bool
	msg    *txMsg
	rdMsg  *txMsg
	rd     readReq
	ackFor *txMsg

	// cause is the causal ref of the engine pass that emitted the packet;
	// the receive side chains its rx pass from it (in-memory only, never
	// wire bytes). Once the receiver's rx pass has run, it holds that
	// pass's ref instead, for the deferred placement to chain from.
	cause trace.Ref

	// Receive-side placement state, set by handleData for the deferred
	// placement event: the receiving QP, the target region of an RDMA
	// Write, and the matched receive and its assembly for a Send.
	rq     *QP
	region *mem.Region
	wr     *verbs.WR
	in     *verbs.Inbound
}

type readReq struct {
	srcKey  mem.RKey
	srcOff  int
	n       int
	sinkKey mem.RKey
	sinkOff int
	msg     *txMsg
}

// txMsg tracks an outgoing RC message. data is its payload view, released
// when the ACK completes the send.
type txMsg struct {
	wr   verbs.WR
	qpn  int // origin QP number on the sending HCA
	data *mem.View
}

// QP is one endpoint of a reliable connection. The embedded verbs.Front is
// its verbs interface: posting, receive matching and completions.
type QP struct {
	verbs.Front
	hca  *HCA
	peer *QP
	rxQ  *sim.Queue[*packet]
}

func (h *HCA) newQP() *QP {
	q := &QP{
		Front: verbs.NewFront(&h.dev, len(h.qps)),
		hca:   h,
		rxQ:   sim.NewQueue[*packet](h.eng, h.name+"/rxq"),
	}
	h.qps = append(h.qps, q)
	h.eng.Go(fmt.Sprintf("%s/qp%d/rx", h.name, q.QPN()), q.rxLoop)
	h.eng.Go(fmt.Sprintf("%s/qp%d/tx", h.name, q.QPN()), q.txLoop)
	return q
}

// txLoop executes send work requests strictly in order, as the RC send
// queue requires: packets of consecutive messages never interleave within
// one QP.
func (q *QP) txLoop(p *sim.Proc) {
	for {
		q.execute(p, q.NextSend(p))
	}
}

// execute runs one WQE on the send processor.
func (q *QP) execute(wp *sim.Proc, wr verbs.WR) {
	h := q.hca
	switch wr.Op {
	case verbs.OpWrite, verbs.OpSend:
		// WQE fetch; small payloads ride inline in the descriptor.
		desc := 64
		inline := wr.Len <= h.cfg.InlineSize
		if inline {
			desc += wr.Len
		}
		t0 := h.eng.Now()
		h.pcie.Read(wp, desc)
		if tr := h.eng.Trc(); tr.Enabled() {
			wr.Cause = tr.CompleteR(h.name, "wqe-fetch", int64(t0), int64(h.eng.Now()),
				trace.Cause(wr.Cause), trace.I64("qpn", int64(q.QPN())))
		}
		msg := &txMsg{wr: wr, qpn: q.QPN()}
		q.stream(wp, wr.Op, wr.Local, wr.LocalOff, wr.Len, wr.RemoteKey, wr.RemoteOff, msg, nil, !inline, wr.Cause)
	case verbs.OpRead:
		t0 := h.eng.Now()
		h.pcie.Read(wp, 64)
		if tr := h.eng.Trc(); tr.Enabled() {
			wr.Cause = tr.CompleteR(h.name, "wqe-fetch", int64(t0), int64(h.eng.Now()),
				trace.Cause(wr.Cause), trace.I64("qpn", int64(q.QPN())))
		}
		msg := &txMsg{wr: wr, qpn: q.QPN()}
		pk := h.pkts.Get()
		*pk = packet{
			dstQPN: q.peer.QPN(),
			kind:   pktReadReq,
			n:      28,
			rd: readReq{
				srcKey:  wr.RemoteKey,
				srcOff:  wr.RemoteOff,
				n:       wr.Len,
				sinkKey: wr.Local.Key,
				sinkOff: wr.LocalOff,
				msg:     msg,
			},
		}
		q.engineSend(wp, true, wr.Cause, pk)
	default:
		panic(fmt.Sprintf("ib %s: bad op %v on send queue", h.name, wr.Op))
	}
}

// stream packetizes one message through the send processor. dma controls
// whether payload is fetched from host memory (false for inline sends and
// for read responses sourced by the responder, which still DMA — the
// responder passes true).
func (q *QP) stream(wp *sim.Proc, op verbs.Op, src *mem.Region, srcOff, n int, stag mem.RKey, remoteOff int, msg *txMsg, rdMsg *txMsg, dma bool, cause trace.Ref) {
	h := q.hca
	mtu := h.cfg.MTU
	// Snapshot the message payload once as a copy-on-write view; packets
	// carry ranges of it. The ACK releases the sender's hold; a read
	// response has no sender completion, so it lets go once streamed.
	data := src.View(srcOff, n)
	if msg != nil {
		msg.data = data
	} else {
		defer data.Release()
	}
	// One-packet DMA prefetch (see iwarp.emitSegments for the rationale).
	var ready sim.Time
	if dma && n > 0 {
		ready, _ = h.pcie.ReadNext(wp.Now(), min(mtu, n))
	}
	for off := 0; off < n; off += mtu {
		take := min(mtu, n-off)
		if dma {
			cur := ready
			if next := off + take; next < n {
				ready, _ = h.pcie.ReadNext(wp.Now(), min(mtu, n-next))
			}
			wp.SleepUntil(cur)
		}
		pk := h.pkts.Get()
		*pk = packet{
			dstQPN: q.peer.QPN(),
			kind:   pktData,
			op:     op,
			n:      take,
			offset: remoteOff + off,
			stag:   stag,
			first:  off == 0,
			last:   off+take == n,
			msg:    msg,
			rdMsg:  rdMsg,
		}
		if op == verbs.OpSend {
			pk.offset = off
		}
		pk.data, pk.voff = data, off
		q.engineSend(wp, pk.first, cause, pk)
	}
}

// engineSend pushes one packet through the (capacity-1) send processor,
// paying a context reload if this QP fell out of the context cache and the
// completion-writeback cost after the final packet of a message. With
// link-level flow control armed, the packet first takes a credit from its
// virtual lane — stalling the WQE (before it occupies the send processor,
// so other work is not head-of-line blocked by an empty lane) until the
// switch has granted buffer for it.
func (q *QP) engineSend(wp *sim.Proc, firstOfMsg bool, cause trace.Ref, pk *packet) {
	h := q.hca
	var vl *sim.Resource
	if h.vls != nil {
		vl = h.vls[q.QPN()%len(h.vls)]
		if !vl.TryAcquire(1) {
			// Lane out of credits: the link ahead has not drained. Count
			// the stall and wait for a credit to return.
			h.creditStalls++
			h.cCreditStalls.Inc()
			vl.Acquire(wp, 1)
		}
	}
	t0 := h.eng.Now()
	h.txEngine.Acquire(wp, 1)
	hold := h.cfg.TxPktTime
	if firstOfMsg && h.touchCtx(q.QPN()) {
		hold += h.cfg.CtxMissTime
	}
	wp.Sleep(hold)
	if tr := h.eng.Trc(); tr.Enabled() {
		pk.cause = tr.CompleteR(h.name, "tx-pkt", int64(t0), int64(h.eng.Now()),
			trace.Cause(cause), trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(pk.n)))
	}
	// Read before emit: from there on the packet belongs to the receiver.
	cqe := pk.last || pk.kind != pktData
	txEnd := q.emit(pk)
	if vl != nil {
		// The credit comes back once the switch has forwarded the packet
		// out of the buffer the credit represents: uplink serialization end
		// plus the (modeled) credit-return round trip. Scheduled on this
		// HCA's own engine, so flow control adds no cross-shard edges. A
		// stalled or congested uplink pushes txEnd out and starves the
		// lane — exactly the lossless backpressure IB trades drops for.
		h.eng.AtArg(txEnd+h.cfg.CreditReturn, returnCredit, vl)
	}
	if cqe {
		wp.Sleep(h.cfg.CqeTime)
	}
	h.txEngine.Release(1)
}

// returnCredit gives one credit back to the virtual lane v.
func returnCredit(v any) { v.(*sim.Resource).Release(1) }

// emit puts a packet on the wire and returns when its uplink serialization
// ends (the credit-return anchor for link-level flow control).
func (q *QP) emit(pk *packet) sim.Time {
	q.hca.cPktsTx.Inc()
	return q.hca.port.Send(&fabric.Frame{
		Src:     q.hca.port.ID(),
		Dst:     q.peer.hca.port.ID(),
		Bytes:   pk.n + q.hca.cfg.PacketHeader,
		Payload: pk,
		Flow:    q.QPN(), // per-connection ECMP path on multi-switch fabrics
		Cause:   pk.cause,
	})
}

// rxLoop is the per-QP receive process; the capacity-1 receive processor is
// shared across all QPs of the HCA.
func (q *QP) rxLoop(p *sim.Proc) {
	h := q.hca
	for {
		pk := q.rxQ.Get(p)
		switch pk.kind {
		case pktAck:
			h.cAcksRx.Inc()
			t0 := h.eng.Now()
			h.rxEngine.Use(p, h.cfg.AckTime)
			ackRef := trace.RefNone
			if tr := h.eng.Trc(); tr.Enabled() {
				ackRef = tr.CompleteR(h.name, "rx-ack", int64(t0), int64(h.eng.Now()),
					trace.Cause(pk.cause), trace.I64("qpn", int64(q.QPN())))
			}
			m := pk.ackFor
			if m.wr.Op == verbs.OpWrite || m.wr.Op == verbs.OpSend {
				// The ACK returns to the QP that sent the message.
				h.qps[m.qpn].Complete(&m.wr, ackRef)
				m.data.Release()
			}
			h.pkts.Put(pk)
		case pktReadReq:
			h.cReadReqs.Inc()
			t0 := h.eng.Now()
			h.rxEngine.Use(p, h.cfg.RxPktTime)
			reqRef := trace.RefNone
			if tr := h.eng.Trc(); tr.Enabled() {
				reqRef = tr.CompleteR(h.name, "rx-pkt", int64(t0), int64(h.eng.Now()),
					trace.Cause(pk.cause), trace.I64("qpn", int64(q.QPN())))
			}
			rd := pk.rd
			h.pkts.Put(pk)
			region, ok := h.reg.Lookup(rd.srcKey)
			if !ok {
				panic(fmt.Sprintf("ib %s: read request for unknown rkey %d", h.name, rd.srcKey))
			}
			h.eng.Go(fmt.Sprintf("%s/qp%d/read-resp", h.name, q.QPN()), func(rp *sim.Proc) {
				q.stream(rp, verbs.OpWrite, region, rd.srcOff, rd.n, rd.sinkKey, rd.sinkOff, nil, rd.msg, true, reqRef)
			})
		case pktData:
			h.cPktsRx.Inc()
			q.handleData(p, pk)
		}
	}
}

// handleData performs DDP-equivalent placement for an arriving data packet.
func (q *QP) handleData(p *sim.Proc, pk *packet) {
	h := q.hca
	t0 := h.eng.Now()
	h.rxEngine.Acquire(p, 1)
	hold := h.cfg.RxPktTime
	if pk.first && h.touchCtx(q.QPN()) {
		hold += h.cfg.CtxMissTime
	}
	p.Sleep(hold)
	h.rxEngine.Release(1)
	rxRef := trace.RefNone
	if tr := h.eng.Trc(); tr.Enabled() {
		rxRef = tr.CompleteR(h.name, "rx-pkt", int64(t0), int64(h.eng.Now()),
			trace.Cause(pk.cause), trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(pk.n)))
	}

	pk.cause = rxRef
	pk.rq = q

	switch {
	case pk.op == verbs.OpWrite:
		region, ok := h.reg.Lookup(pk.stag)
		if !ok {
			panic(fmt.Sprintf("ib %s: RDMA write to unknown rkey %d", h.name, pk.stag))
		}
		pk.region = region
		h.eng.AtArg(h.pcie.WriteFrom(h.eng.Now(), pk.n), placeWrite, pk)
	case pk.op == verbs.OpSend:
		wr, in := q.Arrive(pk.first, pk.last, pk.data, pk.voff, pk.offset, pk.n, rxRef)
		if wr != nil {
			pk.wr, pk.in = wr, in
			h.eng.AtArg(h.pcie.WriteFrom(h.eng.Now(), pk.n), placeSend, pk)
			return
		}
		// No posted receive: the message waits as early; its last packet
		// is acknowledged at once.
		if pk.last {
			q.ack(pk.msg, rxRef)
		}
		h.pkts.Put(pk)
	}
}

// placeWrite lands an RDMA Write (or Read Response) packet in its target
// region once the host DMA write completes, then recycles the packet.
func placeWrite(v any) {
	pk := v.(*packet)
	q := pk.rq
	h := q.hca
	pk.data.CopyTo(pk.region.Buf, pk.region.Off+pk.offset, pk.voff, pk.n)
	placed := q.TaggedPlaced(pk.stag, pk.offset, pk.n, pk.cause)
	if pk.last {
		if pk.rdMsg != nil {
			q.Complete(&pk.rdMsg.wr, placed)
		} else if pk.msg != nil {
			q.ack(pk.msg, placed)
		}
	}
	h.pkts.Put(pk)
}

// placeSend lands a Send packet in its matched receive buffer once the host
// DMA write completes, completing the receive on the last packet, then
// recycles the packet.
func placeSend(v any) {
	pk := v.(*packet)
	q, wr := pk.rq, pk.wr
	pk.data.CopyTo(wr.Local.Buf, wr.Local.Off+wr.LocalOff+pk.offset, pk.voff, pk.n)
	if pk.last {
		q.ack(pk.msg, q.RecvPlaced(wr.ID, pk.in, pk.cause))
	}
	q.hca.pkts.Put(pk)
}

// ack emits a transport ACK for a fully-arrived message, caused by the event
// that finished the message (placement or final rx pass).
func (q *QP) ack(msg *txMsg, cause trace.Ref) {
	pk := q.hca.pkts.Get()
	*pk = packet{dstQPN: q.peer.QPN(), kind: pktAck, n: 0, ackFor: msg, cause: cause}
	q.emit(pk)
}
