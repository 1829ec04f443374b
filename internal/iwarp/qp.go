package iwarp

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// segKind classifies a DDP segment.
type segKind int

const (
	segTagged   segKind = iota // RDMA Write / RDMA Read Response payload
	segUntagged                // Send payload
	segReadReq                 // RDMAP Read Request
)

// ddpSeg is the unit MPA frames into one FPDU. It travels as the tcpsim
// record metadata and carries the actual payload bytes so the simulation
// moves real data end to end.
type ddpSeg struct {
	kind   segKind
	data   *mem.View // the message payload; this segment carries [voff, voff+n)
	voff   int
	n      int
	offset int      // tagged: remote offset; untagged: message offset
	stag   mem.RKey // tagged target region
	first  bool
	last   bool
	msg    *txMsg  // sender bookkeeping (completion when acked)
	rdMsg  *txMsg  // read response: requester's WQE to complete on placement
	rd     readReq // valid when kind == segReadReq

	// Sender-side state for the pipeline event that hands the segment to
	// TCP (see enterTCP): the sending QP, the FPDU size and the tx-engine
	// pass that built it.
	src     *QP
	fpdu    int
	txCause trace.Ref
}

// rxPass carries an arrived data segment from the end of its rx-engine
// pass through the remaining rx pipeline stages (see finishRx).
type rxPass struct {
	q   *QP
	seg tcpsim.Segment
	ecn bool      // the fabric ECN-marked the segment
	ref trace.Ref // the rx-engine pass
}

// placement carries one DDP segment from its rx pass to the host DMA write
// that lands it (see placeTagged and placeUntagged).
type placement struct {
	q      *QP
	seg    *ddpSeg
	region *mem.Region    // tagged: the target region
	wr     *verbs.WR      // untagged: the matched receive
	in     *verbs.Inbound // untagged: the message being assembled
	cause  trace.Ref      // the rx-engine pass that completed the segment
}

// readReq is the RDMAP Read Request payload.
type readReq struct {
	srcKey  mem.RKey
	srcOff  int
	n       int
	sinkKey mem.RKey
	sinkOff int
	msg     *txMsg
}

// txMsg tracks an outgoing RDMAP message across its segments. cause carries
// the causal ref of the WQE-fetch event into the emission phase; data is
// the payload view, released when the last segment is acked.
type txMsg struct {
	wr    verbs.WR
	segs  int
	acked int
	cause trace.Ref
	data  *mem.View
}

// QP is an iWARP queue pair bound to one offloaded TCP connection. The
// embedded verbs.Front is its verbs interface: posting, receive matching
// and completions.
type QP struct {
	verbs.Front
	rnic *RNIC
	peer *QP
	conn *tcpsim.Conn

	// The fetch stage's WQE and when its fetch began, the emit stage and
	// its emission, and the receive stage with the segment in its pass.
	fetching *fetchedWR
	fetchT0  sim.Time
	emitQ    sim.Stage[*fetchedWR]
	em       emission
	rx       sim.Stage[rxSeg]
	rxCur    rxSeg
	rxT0     sim.Time

	// Causal bookkeeping (RefNone with tracing off). txCause is the
	// tx-engine event whose FPDU the next emitted TCP segments carry;
	// ackCause is the rx event of the ACK currently feeding conn.Input, so
	// completions raised from OnRecordAcked name what enabled them.
	txCause  trace.Ref
	ackCause trace.Ref

	// limiter is the DCQCN-style pacer (nil unless Config.DCQCN is set).
	// gateArmed latches the single pending wake event while drainTx is
	// blocked on the pacing gate, so a burst of OnSendable callbacks never
	// stacks up duplicate wakes.
	limiter   *congestion.RateLimiter
	gateArmed bool
}

func (r *RNIC) newQP() *QP {
	q := &QP{
		Front: verbs.NewFront(&r.dev, len(r.qps)),
		rnic:  r,
		conn:  tcpsim.NewConn(r.eng, fmt.Sprintf("%s/qp%d", r.name, len(r.qps))),
	}
	q.em.q = q
	q.OnSend(fetchNext, q)
	q.emitQ.Init(r.eng, emitNext, q)
	q.rx.Init(r.eng, rxNext, q)
	q.conn.MSS = r.cfg.MSS
	q.conn.WindowBytes = r.cfg.TCPWindow
	q.conn.RTO = r.cfg.TCPRTO
	q.conn.OnSendable = q.drainTx
	q.conn.OnRecordAcked = q.recordAcked
	if r.cfg.DCQCN != nil {
		q.limiter = congestion.NewRateLimiter(*r.cfg.DCQCN)
	}
	q.conn.OnRetransmit = func(ref trace.Ref) {
		q.txCause = ref
		if q.limiter != nil {
			// A retransmission is the hard congestion signal: the queue
			// overflowed (or the path lost the segment) before any mark
			// could warn us. Cut the pacing rate alongside TCP's cwnd.
			q.limiter.OnCongestion(r.eng.Now())
			r.cRateCuts.Inc()
		}
	}
	r.qps = append(r.qps, q)
	return q
}

// fetchedWR is a work request whose descriptor (and payload DMA bookings)
// the RNIC has already fetched, awaiting in-order emission.
type fetchedWR struct {
	wr  verbs.WR
	msg *txMsg
}

// The fetch and emit stages form the NE010's pipelined WQE path:
// descriptor and payload fetches of the next message overlap protocol
// processing of the current one (the pipelined protocol engine /
// transaction switch), while emission order per connection stays strict.
// This is a deliberate architectural contrast with internal/ib, whose
// processor-based HCA fetches and executes one WQE at a time — the
// difference shows up in the paper's LogP gap (Fig. 5) and
// multi-connection (Fig. 2) results.

// fetchNext fetches the descriptor of QP v's next landed send work
// request, or leaves the fetch stage idle.
func fetchNext(v any) {
	q := v.(*QP)
	wr, ok := q.TakeSend()
	if !ok {
		return
	}
	r := q.rnic
	q.fetching, q.fetchT0 = &fetchedWR{wr: wr}, r.eng.Now()
	r.eng.AfterArg(r.pcie.ReadAsync(64)-r.eng.Now(), fetched, q)
}

func fetched(v any) {
	q := v.(*QP)
	r, f := q.rnic, q.fetching
	if tr := r.eng.Trc(); tr.Enabled() {
		f.wr.Cause = tr.CompleteR(r.name, "wqe-fetch", int64(q.fetchT0), int64(r.eng.Now()),
			trace.Cause(f.wr.Cause), trace.I64("qpn", int64(q.QPN())))
	}
	switch f.wr.Op {
	case verbs.OpWrite, verbs.OpSend:
		f.msg = &txMsg{wr: f.wr, cause: f.wr.Cause}
		maxP, _ := q.segParams(f.wr.Op)
		f.msg.segs = (f.wr.Len + maxP - 1) / maxP
	case verbs.OpRead:
		// The read request carries no local payload.
	default:
		panic(fmt.Sprintf("iwarp %s: bad op %v on send queue", r.name, f.wr.Op))
	}
	q.emitQ.Put(f)
	fetchNext(q)
}

// emitNext emits QP v's next fetched work request, or leaves the emit
// stage idle.
func emitNext(v any) {
	q := v.(*QP)
	f, ok := q.emitQ.Next()
	if !ok {
		return
	}
	wr := &f.wr
	if wr.Op == verbs.OpRead {
		q.em = emission{q: q, kind: segReadReq, read: wr, cause: wr.Cause}
		pass(&q.em)
		return
	}
	q.em = emission{q: q, kind: segUntagged, src: wr.Local, srcOff: wr.LocalOff, n: wr.Len,
		msg: f.msg, cause: f.msg.cause}
	if wr.Op == verbs.OpWrite {
		q.em.kind, q.em.stag, q.em.remoteOff = segTagged, wr.RemoteKey, wr.RemoteOff
	}
	start(&q.em)
}

// segParams returns the maximum DDP payload and header size for an op.
func (q *QP) segParams(op verbs.Op) (maxP, hdr int) {
	if op == verbs.OpSend {
		return q.rnic.maxUntagged, UntaggedHeader
	}
	return q.rnic.maxTagged, TaggedHeader
}

// emission is the protocol-engine emission phase of one RDMAP message: the
// emit stage's work request, or an RDMA Read response, which bypasses the
// send queue. Each DDP segment (or Read Request) takes one engine pass.
type emission struct {
	q          *QP
	kind       segKind
	src        *mem.Region
	srcOff, n  int
	stag       mem.RKey
	remoteOff  int
	msg, rdMsg *txMsg
	read       *verbs.WR // the Read Request WQE (kind segReadReq)
	cause      trace.Ref
	data       *mem.View
	maxP, hdr  int
	off        int      // offset of the segment in the engine
	ready, t0  sim.Time // one-segment DMA prefetch; start of the engine pass
}

// start begins emission v of a data message. The payload is snapshotted
// once as a copy-on-write view that segments carry ranges of; the final
// ACK releases the sender's hold, and a read response, which has no sender
// completion, lets go once emitted.
func start(v any) {
	s := v.(*emission)
	op := verbs.OpWrite
	if s.kind == segUntagged {
		op = verbs.OpSend
	}
	s.maxP, s.hdr = s.q.segParams(op)
	s.data = s.src.View(s.srcOff, s.n)
	if s.msg != nil {
		s.msg.data = s.data
	}
	// One-segment DMA prefetch: segment i+1's fetch is booked before
	// segment i is processed, keeping the bus busy through engine time
	// while bounding how far ahead the shared chipset path is reserved.
	if s.n > 0 {
		s.ready = s.q.rnic.hostToEngine(min(s.maxP, s.n) + s.hdr)
	}
	s.off = 0
	s.nextSeg()
}

func (s *emission) nextSeg() {
	r := s.q.rnic
	switch {
	case s.off >= s.n && s.msg != nil:
		emitNext(s.q)
	case s.off >= s.n:
		s.data.Release()
	default:
		cur := s.ready
		if next := s.off + min(s.maxP, s.n-s.off); next < s.n {
			s.ready = r.hostToEngine(min(s.maxP, s.n-next) + s.hdr)
		}
		r.eng.AfterArg(cur-r.eng.Now(), pass, s)
	}
}

// pass takes emission v's transaction-switch slot, then a protocol-engine
// slot.
func pass(v any) {
	s := v.(*emission)
	r := s.q.rnic
	s.t0 = r.eng.Now()
	r.txSched.UseThen(r.cfg.SchedTime, passSched, s)
}

func passSched(v any) {
	r := v.(*emission).q.rnic
	r.txEngine.HoldThen(r.cfg.TxSegTime, passDone, v)
}

// passDone ends emission v's engine pass: the segment heads down the
// transmit pipeline, or the Read Request goes to TCP.
func passDone(v any) {
	s := v.(*emission)
	if s.kind == segReadReq {
		s.q.sendReadRequest(s)
		return
	}
	q, r := s.q, s.q.rnic
	take := min(s.maxP, s.n-s.off)
	segCause := s.cause
	if tr := r.eng.Trc(); tr.Enabled() {
		// One protocol-engine pass per DDP segment: scheduling, the
		// engine slot, and segmentation time, caused by the WQE fetch
		// (or, on the read-responder path, the request's rx pass).
		segCause = tr.CompleteR(r.name, "tx-seg", int64(s.t0), int64(r.eng.Now()),
			trace.Cause(s.cause), trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(take)))
	}
	seg := &ddpSeg{kind: s.kind, data: s.data, voff: s.off, n: take, offset: s.remoteOff + s.off,
		stag: s.stag, first: s.off == 0, last: s.off+take == s.n, msg: s.msg, rdMsg: s.rdMsg,
		src: q, fpdu: r.cfg.Framing.FPDUBytes(s.hdr, take), txCause: segCause}
	if s.kind == segUntagged {
		seg.offset = s.off
	}
	r.txEngine.Release(1)
	r.cSegsTx.Inc()
	framing, markers := r.cfg.Framing.FramingOverhead(s.hdr, take)
	r.cFramingBytes.Add(int64(framing))
	r.cMarkerBytes.Add(int64(markers))
	// The remaining pipeline stages add latency without occupying an
	// engine slot; scheduling preserves per-connection segment order.
	r.eng.AfterArg(r.cfg.TxPipeDelay, enterTCP, seg)
	s.off += take
	s.nextSeg()
}

// enterTCP hands DDP segment v to its QP's TCP connection at the end of
// the transmit pipeline and sends what the window allows.
func enterTCP(v any) {
	seg := v.(*ddpSeg)
	q := seg.src
	q.txCause = seg.txCause
	q.conn.Send(seg.fpdu, seg)
	q.drainTx()
}

// sendReadRequest hands the RDMAP Read Request of emission s, whose engine
// pass just ended, to TCP, then moves the emit stage on.
func (q *QP) sendReadRequest(s *emission) {
	r, wr := q.rnic, s.read
	seg := &ddpSeg{kind: segReadReq, n: ReadRequestBytes, rd: readReq{
		srcKey: wr.RemoteKey, srcOff: wr.RemoteOff, n: wr.Len,
		sinkKey: wr.Local.Key, sinkOff: wr.LocalOff, msg: &txMsg{wr: *wr}}}
	if tr := r.eng.Trc(); tr.Enabled() {
		q.txCause = tr.CompleteR(r.name, "tx-seg", int64(s.t0), int64(r.eng.Now()),
			trace.Cause(wr.Cause), trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(ReadRequestBytes)))
	}
	r.cSegsTx.Inc()
	r.cReadReqs.Inc()
	framing, markers := r.cfg.Framing.FramingOverhead(UntaggedHeader, ReadRequestBytes)
	r.cFramingBytes.Add(int64(framing))
	r.cMarkerBytes.Add(int64(markers))
	q.conn.Send(r.cfg.Framing.FPDUBytes(UntaggedHeader, ReadRequestBytes), seg)
	r.txEngine.Release(1)
	q.drainTx()
	emitNext(q)
}

// drainTx moves every currently-sendable TCP segment onto the wire, pacing
// below line rate while the DCQCN limiter is armed. It runs in engine
// context (from the emit stage, the TCP OnSendable hook, and ACK arrival).
// A pacing delay only ever *postpones* transmissions — the wake fires
// strictly later on the same engine, so pdes lookahead bounds are intact.
func (q *QP) drainTx() {
	for {
		if q.limiter != nil {
			if wait := q.limiter.Gate(q.rnic.eng.Now()); wait > 0 {
				if !q.gateArmed {
					q.gateArmed = true
					q.rnic.eng.After(wait, func() {
						q.gateArmed = false
						q.drainTx()
					})
				}
				return
			}
		}
		seg, ok := q.conn.NextSegment()
		if !ok {
			return
		}
		if q.limiter != nil {
			q.limiter.Sent(q.rnic.eng.Now(), q.conn.WireBytes(seg))
		}
		q.emit(seg, false)
	}
}

// emit puts one TCP segment on the Ethernet. The frame's causal ref is the
// tx-engine pass whose FPDU prompted this transmission (for a pure ACK, the
// rx pass that decided to acknowledge). ece rides the TCP header of pure
// ACKs echoing a fabric ECN mark back to the data sender.
func (q *QP) emit(seg tcpsim.Segment, ece bool) {
	ws := q.rnic.wsegFree.Get()
	*ws = wireSeg{dstQPN: q.peer.QPN(), seg: seg, ece: ece}
	q.rnic.port.Send(&fabric.Frame{
		Src:     q.rnic.port.ID(),
		Dst:     q.peer.rnic.port.ID(),
		Bytes:   q.conn.WireBytes(seg),
		Payload: ws,
		Flow:    q.QPN(), // per-connection ECMP path on multi-switch fabrics
		Cause:   q.txCause,
	})
}

// recordAcked fires when the peer TOE acknowledged all bytes of a record:
// reliable send completion for Writes and Sends.
func (q *QP) recordAcked(meta any) {
	seg := meta.(*ddpSeg)
	if seg.msg == nil {
		return
	}
	seg.msg.acked++
	if seg.msg.acked == seg.msg.segs {
		if op := seg.msg.wr.Op; op == verbs.OpWrite || op == verbs.OpSend {
			q.Complete(&seg.msg.wr, q.ackCause)
			seg.msg.data.Release()
		}
	}
}

// rxSeg is one arrived TCP segment plus the fabric's corruption and ECN
// marks, the peer's ECN echo, and the causal ref of the wire hop that
// delivered it.
type rxSeg struct {
	seg     tcpsim.Segment
	corrupt bool
	ecn     bool // fabric marked this segment (congestion experienced)
	ece     bool // peer echoed a mark on this ACK
	cause   trace.Ref
}

// rxNext takes QP v's next arrived TCP segment into the RNIC's pipelined
// engine, or leaves the receive stage idle: TCP input stays serial per
// connection while the engine is shared across QPs.
func rxNext(v any) {
	q := v.(*QP)
	rx, ok := q.rx.Next()
	if !ok {
		return
	}
	r := q.rnic
	q.rxCur, q.rxT0 = rx, r.eng.Now()
	if rx.seg.Len == 0 {
		// Pure ACK: cheap engine pass, may open the TX window.
		r.cAcksRx.Inc()
		r.rxEngine.UseThen(r.cfg.RxAckTime, rxAck, q)
		return
	}
	r.cSegsRx.Inc()
	r.rxSched.UseThen(r.cfg.SchedTime, rxSched, q)
}

// rxAck feeds an arrived pure ACK to TCP. A corrupt one fails the TCP
// checksum and is discarded after the same engine pass; the sender's RTO
// covers the lost window update.
func rxAck(v any) {
	q := v.(*QP)
	r, rx := q.rnic, &q.rxCur
	if rx.corrupt {
		r.cCrcRejects.Inc()
		rxNext(q)
		return
	}
	if tr := r.eng.Trc(); tr.Enabled() {
		q.ackCause = tr.CompleteR(r.name, "rx-ack", int64(q.rxT0), int64(r.eng.Now()),
			trace.Cause(rx.cause), trace.I64("qpn", int64(q.QPN())))
	}
	if rx.ece {
		// The peer saw our data cross a congested queue: apply the TCP cut
		// (once per window) and, when it takes, the DCQCN rate cut.
		// Reacting before Input keeps the cut sized to the flight the mark
		// belongs to.
		r.cECNEchoes.Inc()
		if q.conn.ECNCut() && q.limiter != nil {
			q.limiter.OnCongestion(r.eng.Now())
			r.cRateCuts.Inc()
		}
	}
	q.conn.Input(rx.seg)
	rxNext(q)
}

func rxSched(v any) {
	r := v.(*QP).rnic
	r.rxEngine.HoldThen(r.cfg.RxSegTime, rxPassed, v)
}

// rxPassed ends a data segment's engine pass and sends it down the rest of
// the receive pipeline.
func rxPassed(v any) {
	q := v.(*QP)
	r, rx := q.rnic, &q.rxCur
	r.rxEngine.Release(1)
	var rxRef trace.Ref
	if tr := r.eng.Trc(); tr.Enabled() {
		rxRef = tr.CompleteR(r.name, "rx-seg", int64(q.rxT0), int64(r.eng.Now()),
			trace.Cause(rx.cause), trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(rx.seg.Len)))
	}
	if rx.corrupt {
		// MPA CRC reject: the engine has already paid the receive pass
		// that computed the CRC; the FPDU is discarded without reaching
		// DDP placement or the TOE, so no ACK advances and the sender's
		// go-back-N retransmission recovers the stream.
		r.cCrcRejects.Inc()
		if tr := r.eng.Trc(); tr.Enabled() {
			tr.Instant(r.name, "mpa-crc-reject", trace.I64("qpn", int64(q.QPN())), trace.I64("bytes", int64(rx.seg.Len)))
		}
	} else {
		ps := r.passFree.Get()
		*ps = rxPass{q: q, seg: rx.seg, ecn: rx.ecn, ref: rxRef}
		r.eng.AfterArg(r.cfg.RxPipeDelay, finishRx, ps)
	}
	rxNext(q)
}

// finishRx runs at the end of rx pass v's pipeline: TCP input, the ACK
// back to the sender, and DDP handling of every record the segment
// completed.
func finishRx(v any) {
	ps := v.(*rxPass)
	q, seg, ecnMarked, rxRef := ps.q, ps.seg, ps.ecn, ps.ref
	q.rnic.passFree.Put(ps)
	// Completions raised from Input's ACK processing (piggybacked acks) and
	// the ACK we send back are both enabled by this segment's rx pass.
	q.ackCause = rxRef
	recs, ack, need := q.conn.Input(seg)
	if need {
		q.txCause = rxRef
		// Echo a fabric ECN mark back on the ACK (DCTCP-style per-segment
		// echo; the sender's cut hygiene is one per window).
		q.emit(ack, ecnMarked)
	}
	for _, rec := range recs {
		q.handleSeg(rec.Meta.(*ddpSeg), rxRef)
	}
}

// handleSeg places one arrived DDP segment; cause is the rx-engine pass that
// completed the segment's record.
func (q *QP) handleSeg(seg *ddpSeg, cause trace.Ref) {
	r := q.rnic
	switch seg.kind {
	case segTagged:
		region, ok := r.reg.Lookup(seg.stag)
		if !ok {
			panic(fmt.Sprintf("iwarp %s: tagged placement into unknown STag %d", r.name, seg.stag))
		}
		// Cross the internal bridge, then DMA into host memory.
		pl := r.placeFree.Get()
		*pl = placement{q: q, seg: seg, region: region, cause: cause}
		r.eng.AtArg(r.engineToHost(seg.n+TaggedHeader), placeTagged, pl)

	case segUntagged:
		wr, in := q.Arrive(seg.first, seg.last, seg.data, seg.voff, seg.offset, seg.n, cause)
		if wr != nil {
			// Zero-copy placement into the posted receive buffer.
			pl := r.placeFree.Get()
			*pl = placement{q: q, seg: seg, wr: wr, in: in, cause: cause}
			r.eng.AtArg(r.engineToHost(seg.n+UntaggedHeader), placeUntagged, pl)
		} else if seg.last {
			// No posted receive: the message waits in adapter memory.
			r.cEarlyArrivals.Inc()
		}

	case segReadReq:
		rd := seg.rd
		region, ok := r.reg.Lookup(rd.srcKey)
		if !ok {
			panic(fmt.Sprintf("iwarp %s: read request for unknown STag %d", r.name, rd.srcKey))
		}
		// The responder RNIC streams the data back without host involvement.
		s := &emission{q: q, kind: segTagged, src: region, srcOff: rd.srcOff, n: rd.n,
			stag: rd.sinkKey, remoteOff: rd.sinkOff, rdMsg: rd.msg, cause: cause}
		r.eng.AfterArg(0, start, s)
	}
}

// placeTagged lands a tagged segment in its target region once the host
// DMA write of placement v completes.
func placeTagged(v any) {
	pl := v.(*placement)
	q, seg, region, cause := pl.q, pl.seg, pl.region, pl.cause
	q.rnic.placeFree.Put(pl)
	seg.data.CopyTo(region.Buf, region.Off+seg.offset, seg.voff, seg.n)
	placed := q.TaggedPlaced(seg.stag, seg.offset, seg.n, cause)
	if seg.rdMsg != nil && seg.last {
		// Last RDMA Read Response segment: complete the requester's OpRead
		// WQE. q is the requester-side QP here.
		q.Complete(&seg.rdMsg.wr, placed)
	}
}

// placeUntagged lands an untagged segment in its matched receive buffer
// once the host DMA write of placement v completes, completing the receive
// on the message's last segment.
func placeUntagged(v any) {
	pl := v.(*placement)
	q, seg, wr, in, cause := pl.q, pl.seg, pl.wr, pl.in, pl.cause
	q.rnic.placeFree.Put(pl)
	seg.data.CopyTo(wr.Local.Buf, wr.Local.Off+wr.LocalOff+seg.offset, seg.voff, seg.n)
	if seg.last {
		q.RecvPlaced(wr.ID, in, cause)
	}
}
