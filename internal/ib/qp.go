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
	tx   stream // the send work request in execution

	rx   sim.Stage[*packet]
	rxPk *packet  // the packet in the receive processor
	rxT0 sim.Time // when its pass began
}

func (h *HCA) newQP() *QP {
	q := &QP{Front: verbs.NewFront(&h.dev, len(h.qps)), hca: h}
	q.tx.q = q
	q.OnSend(txNext, q)
	q.rx.Init(h.eng, rxNext, q)
	h.qps = append(h.qps, q)
	return q
}

// stream is one message going out through the send processor: the QP's
// send work request in execution (RC runs them strictly in order, so
// messages never interleave within a QP), or an RDMA Read response.
type stream struct {
	q          *QP
	op         verbs.Op
	src        *mem.Region
	data       *mem.View // the payload view; nil for a Read Request WQE
	srcOff, n  int
	stag       mem.RKey
	remoteOff  int
	msg, rdMsg *txMsg
	dma        bool     // payload fetched from host memory (not inline)
	ready      sim.Time // one-packet DMA prefetch
	off        int      // offset of the packet in flight
	cause      trace.Ref
	// The packet in the send processor.
	pk    *packet
	first bool
	vl    *sim.Resource
	t0    sim.Time
}

// txNext fetches the WQE of QP v's next landed send work request, or
// leaves the send stage idle. Small payloads ride inline in the WQE.
func txNext(v any) {
	q := v.(*QP)
	wr, ok := q.TakeSend()
	if !ok {
		return
	}
	h, s, desc := q.hca, &q.tx, 64
	if wr.Op != verbs.OpRead && wr.Len <= h.cfg.InlineSize {
		desc += wr.Len
	}
	s.msg, s.t0 = &txMsg{wr: wr, qpn: q.QPN()}, h.eng.Now()
	h.eng.AfterArg(h.pcie.ReadAsync(desc)-h.eng.Now(), txFetched, s)
}

func txFetched(v any) {
	s := v.(*stream)
	q, h, wr := s.q, s.q.hca, &s.msg.wr
	if tr := h.eng.Trc(); tr.Enabled() {
		wr.Cause = tr.CompleteR(h.name, "wqe-fetch", int64(s.t0), int64(h.eng.Now()),
			trace.Cause(wr.Cause), trace.I64("qpn", int64(q.QPN())))
	}
	switch wr.Op {
	case verbs.OpWrite, verbs.OpSend:
	case verbs.OpRead:
		pk := h.pkts.Get()
		*pk = packet{dstQPN: q.peer.QPN(), kind: pktReadReq, n: 28, rd: readReq{
			srcKey: wr.RemoteKey, srcOff: wr.RemoteOff, n: wr.Len,
			sinkKey: wr.Local.Key, sinkOff: wr.LocalOff, msg: s.msg}}
		s.data = nil
		s.send(pk, true, wr.Cause)
		return
	default:
		panic(fmt.Sprintf("ib %s: bad op %v on send queue", h.name, wr.Op))
	}
	*s = stream{q: q, op: wr.Op, src: wr.Local, srcOff: wr.LocalOff, n: wr.Len,
		stag: wr.RemoteKey, remoteOff: wr.RemoteOff, msg: s.msg,
		dma: wr.Len > h.cfg.InlineSize, cause: wr.Cause}
	start(s)
}

// start packetizes stream v's message through the send processor. The
// payload is snapshotted once as a copy-on-write view that packets carry
// ranges of; the ACK releases the sender's hold, and a read response,
// which has no sender completion, lets go once streamed.
func start(v any) {
	s := v.(*stream)
	h := s.q.hca
	s.data = s.src.View(s.srcOff, s.n)
	if s.msg != nil {
		s.msg.data = s.data
	}
	// One-packet DMA prefetch (see start in internal/iwarp for the rationale).
	if s.dma && s.n > 0 {
		s.ready, _ = h.pcie.ReadNext(h.eng.Now(), min(h.cfg.MTU, s.n))
	}
	s.off = 0
	s.nextPacket()
}

func (s *stream) nextPacket() {
	h := s.q.hca
	switch {
	case s.off >= s.n && s.msg != nil:
		txNext(s.q)
	case s.off >= s.n:
		s.data.Release()
	case s.dma:
		cur := s.ready
		if next := s.off + min(h.cfg.MTU, s.n-s.off); next < s.n {
			s.ready, _ = h.pcie.ReadNext(h.eng.Now(), min(h.cfg.MTU, s.n-next))
		}
		h.eng.AfterArg(cur-h.eng.Now(), streamPacket, s)
	default:
		streamPacket(s)
	}
}

func streamPacket(v any) {
	s := v.(*stream)
	take := min(s.q.hca.cfg.MTU, s.n-s.off)
	pk := s.q.hca.pkts.Get()
	*pk = packet{dstQPN: s.q.peer.QPN(), kind: pktData, op: s.op, n: take,
		offset: s.remoteOff + s.off, stag: s.stag, first: s.off == 0, last: s.off+take == s.n,
		msg: s.msg, rdMsg: s.rdMsg, data: s.data, voff: s.off}
	if s.op == verbs.OpSend {
		pk.offset = s.off
	}
	s.send(pk, pk.first, s.cause)
}

// send pushes one packet through the (capacity-1) send processor, paying a
// context reload if this QP fell out of the context cache and the
// completion-writeback cost after the final packet of a message. With
// link-level flow control armed, the packet first takes a credit from its
// virtual lane — stalling the WQE (before it occupies the send processor,
// so other work is not head-of-line blocked by an empty lane) until the
// switch has granted buffer for it.
func (s *stream) send(pk *packet, firstOfMsg bool, cause trace.Ref) {
	q, h := s.q, s.q.hca
	s.pk, s.first, s.cause, s.vl = pk, firstOfMsg, cause, nil
	if h.vls != nil {
		s.vl = h.vls[q.QPN()%len(h.vls)]
		if !s.vl.TryAcquire(1) {
			// Lane out of credits: the link ahead has not drained. Count
			// the stall and wait for a credit to return.
			h.creditStalls++
			h.cCreditStalls.Inc()
			s.vl.AcquireThen(1, sendEnter, s)
			return
		}
	}
	sendEnter(s)
}

func sendEnter(v any) {
	s := v.(*stream)
	s.t0 = s.q.hca.eng.Now()
	s.q.hca.txEngine.AcquireThen(1, sendHold, s)
}

func sendHold(v any) {
	s := v.(*stream)
	h := s.q.hca
	hold := h.cfg.TxPktTime
	if s.first && h.touchCtx(s.q.QPN()) {
		hold += h.cfg.CtxMissTime
	}
	h.eng.AfterArg(hold, sendEmit, s)
}

// sendEmit puts the packet on the wire, then holds the send processor for
// the completion writeback after the last packet of a message.
func sendEmit(v any) {
	s := v.(*stream)
	q, h, pk := s.q, s.q.hca, s.pk
	if tr := h.eng.Trc(); tr.Enabled() {
		pk.cause = tr.CompleteR(h.name, "tx-pkt", int64(s.t0), int64(h.eng.Now()),
			trace.Cause(s.cause), trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(pk.n)))
	}
	// Read before emit: from there on the packet belongs to the receiver.
	cqe := pk.last || pk.kind != pktData
	s.pk = nil
	txEnd := q.emit(pk)
	if s.vl != nil {
		// The credit comes back once the switch has forwarded the packet
		// out of the buffer the credit represents: uplink serialization end
		// plus the (modeled) credit-return round trip. Scheduled on this
		// HCA's own engine, so flow control adds no cross-shard edges. A
		// stalled or congested uplink pushes txEnd out and starves the
		// lane — exactly the lossless backpressure IB trades drops for.
		h.eng.AtArg(txEnd+h.cfg.CreditReturn, returnCredit, s.vl)
	}
	if cqe {
		h.eng.AfterArg(h.cfg.CqeTime, sendDone, s)
	} else {
		sendDone(s)
	}
}

// sendDone frees the send processor and moves on: to the stream's next
// packet, or, after a Read Request, to the next work request.
func sendDone(v any) {
	s := v.(*stream)
	s.q.hca.txEngine.Release(1)
	if s.data == nil {
		txNext(s.q)
		return
	}
	s.off += s.q.hca.cfg.MTU
	s.nextPacket()
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

// rxNext takes QP v's next arrived packet into the HCA's capacity-1
// receive processor (shared by all its QPs), or leaves the stage idle.
func rxNext(v any) {
	q := v.(*QP)
	pk, ok := q.rx.Next()
	if !ok {
		return
	}
	h := q.hca
	q.rxPk, q.rxT0 = pk, h.eng.Now()
	switch pk.kind {
	case pktAck:
		h.cAcksRx.Inc()
		h.rxEngine.UseThen(h.cfg.AckTime, rxAck, q)
	case pktReadReq:
		h.cReadReqs.Inc()
		h.rxEngine.UseThen(h.cfg.RxPktTime, rxReadReq, q)
	case pktData:
		h.cPktsRx.Inc()
		h.rxEngine.AcquireThen(1, rxHold, q)
	}
}

// rxAck completes the message an arrived ACK acknowledges.
func rxAck(v any) {
	q := v.(*QP)
	h, pk := q.hca, q.rxPk
	ackRef := trace.RefNone
	if tr := h.eng.Trc(); tr.Enabled() {
		ackRef = tr.CompleteR(h.name, "rx-ack", int64(q.rxT0), int64(h.eng.Now()),
			trace.Cause(pk.cause), trace.I64("qpn", int64(q.QPN())))
	}
	m := pk.ackFor
	if m.wr.Op == verbs.OpWrite || m.wr.Op == verbs.OpSend {
		// The ACK returns to the QP that sent the message.
		h.qps[m.qpn].Complete(&m.wr, ackRef)
		m.data.Release()
	}
	h.pkts.Put(pk)
	rxNext(q)
}

// rxReadReq starts the response to an arrived RDMA Read Request.
func rxReadReq(v any) {
	q := v.(*QP)
	h, pk := q.hca, q.rxPk
	reqRef := trace.RefNone
	if tr := h.eng.Trc(); tr.Enabled() {
		reqRef = tr.CompleteR(h.name, "rx-pkt", int64(q.rxT0), int64(h.eng.Now()),
			trace.Cause(pk.cause), trace.I64("qpn", int64(q.QPN())))
	}
	rd := pk.rd
	h.pkts.Put(pk)
	region, ok := h.reg.Lookup(rd.srcKey)
	if !ok {
		panic(fmt.Sprintf("ib %s: read request for unknown rkey %d", h.name, rd.srcKey))
	}
	s := &stream{q: q, op: verbs.OpWrite, src: region, srcOff: rd.srcOff, n: rd.n,
		stag: rd.sinkKey, remoteOff: rd.sinkOff, rdMsg: rd.msg, dma: true, cause: reqRef}
	h.eng.AfterArg(0, start, s)
	rxNext(q)
}

func rxHold(v any) {
	q := v.(*QP)
	h := q.hca
	hold := h.cfg.RxPktTime
	if q.rxPk.first && h.touchCtx(q.QPN()) {
		hold += h.cfg.CtxMissTime
	}
	h.eng.AfterArg(hold, rxData, q)
}

// rxData performs DDP-equivalent placement for the data packet whose
// receive pass just ended.
func rxData(v any) {
	q := v.(*QP)
	h, pk := q.hca, q.rxPk
	h.rxEngine.Release(1)
	rxRef := trace.RefNone
	if tr := h.eng.Trc(); tr.Enabled() {
		rxRef = tr.CompleteR(h.name, "rx-pkt", int64(q.rxT0), int64(h.eng.Now()),
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
			break
		}
		// No posted receive: the message waits as early; its last packet
		// is acknowledged at once.
		if pk.last {
			q.ack(pk.msg, rxRef)
		}
		h.pkts.Put(pk)
	}
	rxNext(q)
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
