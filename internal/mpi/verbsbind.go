package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// Control/eager wire header (32 bytes, little endian), carried at the front
// of every untagged (Send/Recv channel) message:
//
//	[0]     kind
//	[2:4]   source rank
//	[4:8]   tag
//	[8:12]  payload / message size
//	[12:20] reqA: originator's request id
//	[20:28] reqB: echo of the peer's request id
//	[28:32] rkey (CTS only)
const hdrBytes = 32

// Control message kinds.
const (
	kEager    byte = 1 // eager payload follows the header
	kEagerSyn byte = 2 // eager, sender wants a SyncAck (MPI_Ssend)
	kRTS      byte = 3 // rendezvous request-to-send
	kCTS      byte = 4 // rendezvous clear-to-send (carries rkey)
	kFIN      byte = 5 // rendezvous data complete
	kSyncAck  byte = 6 // matching receive was posted (MPI_Ssend)
)

type wireHdr struct {
	kind       byte
	src        int
	tag        int
	size       int
	reqA, reqB uint64
	rkey       mem.RKey
}

// store writes the header at the start of a bounce buffer's region.
func (h wireHdr) store(r *mem.Region) {
	var b [hdrBytes]byte
	b[0] = h.kind
	binary.LittleEndian.PutUint16(b[2:], uint16(h.src))
	binary.LittleEndian.PutUint32(b[4:], uint32(h.tag))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.size))
	binary.LittleEndian.PutUint64(b[12:], h.reqA)
	binary.LittleEndian.PutUint64(b[20:], h.reqB)
	binary.LittleEndian.PutUint32(b[28:], uint32(h.rkey))
	r.Store(0, b[:])
}

// loadHdr reads the header at the start of a bounce buffer's region.
func loadHdr(r *mem.Region) wireHdr {
	var b [hdrBytes]byte
	r.Load(b[:], 0)
	return wireHdr{
		kind: b[0],
		src:  int(binary.LittleEndian.Uint16(b[2:])),
		tag:  int(binary.LittleEndian.Uint32(b[4:])),
		size: int(binary.LittleEndian.Uint32(b[8:])),
		reqA: binary.LittleEndian.Uint64(b[12:]),
		reqB: binary.LittleEndian.Uint64(b[20:]),
		rkey: mem.RKey(binary.LittleEndian.Uint32(b[28:])),
	}
}

// bounceBuf is one pre-registered eager/control buffer. Bounces come in
// per-peer slabs; a bounce's work-request ID is its slot in vbind.bounces
// (see bounceWR).
type bounceBuf struct {
	buf    *mem.Buffer
	reg    *mem.Region
	slot   int
	peer   int  // recv bounces: the rank whose QP this is posted on
	recv   bool // posted on a receive queue; false for send bounces
	data   bool // recv bounce of the data QP
	posted bool // a work request naming this bounce is in flight
}

// bounceWR is the work-request ID of a bounce: its slot, shifted so that
// every bounce ID is even. Rendezvous writes take the odd IDs.
func bounceWR(bb *bounceBuf) uint64 { return uint64(bb.slot) << 1 }

// rndvWrite is the bookkeeping behind one outstanding rendezvous write.
type rndvWrite struct {
	peer    int
	req     *Request    // the sender's MPI request
	peerReq uint64      // receiver's request id, echoed in FIN
	region  *mem.Region // pinned source region
}

// vbind is the MPICH-over-verbs channel of one process. Each peer gets two
// QPs: a control QP for eager data and protocol messages, and a data QP for
// rendezvous RDMA writes and their FINs. Keeping bulk data off the control
// QP prevents megabyte writes from head-of-line-blocking CTS/RTS exchanges
// (both-way traffic would otherwise ping-pong between directions); the FIN
// must ride the data QP so in-order delivery guarantees it arrives after
// the written data.
type vbind struct {
	p        *Process
	cq       *verbs.CQ
	qps      map[int]verbs.QP // control QPs
	dataQPs  map[int]verbs.QP
	regCache *mem.RegCache

	bounces  []*bounceBuf // by slot
	sendFree []*bounceBuf
	repostQ  sim.Ring[*bounceBuf] // consumed recv bounces awaiting lazy repost
	nextRndv uint64
	rndv     map[uint64]rndvWrite // outstanding rendezvous writes by WR ID
	nextReq  uint64
	reqs     map[uint64]*Request
}

func newVBind(p *Process) *vbind {
	nic := p.host.NIC()
	b := &vbind{
		p:       p,
		cq:      verbs.NewCQ(p.eng(), fmt.Sprintf("mpi/r%d/cq", p.rank), p.host.PollDetect()),
		qps:     make(map[int]verbs.QP),
		dataQPs: make(map[int]verbs.QP),
		rndv:    make(map[uint64]rndvWrite),
		reqs:    make(map[uint64]*Request),
	}
	b.regCache = mem.NewRegCache(nic.Reg(), p.world.cfg.RegCacheEntries)
	return b
}

// addPeer wires rank's QPs to the process's shared CQ. MPI learns of
// RDMA Write arrival from completions and headers, never from the
// Placements log, so the QPs stop logging there.
func (b *vbind) addPeer(rank int, ctrl, data verbs.QP) {
	for _, qp := range []verbs.QP{ctrl, data} {
		qp.SetCQs(b.cq, b.cq)
		qp.SetPlacementLog(false)
	}
	b.qps[rank] = ctrl
	b.dataQPs[rank] = data
}

// prepost allocates and preposts every peer's share of the eager bounce
// pools at MPI_Init, off the measured path and without running the engine.
// Peers are visited in rank order: map-order iteration would hand out
// bounce slots, and with them work-request IDs, differently between
// identically-seeded runs on three or more nodes.
func (b *vbind) prepost() {
	for _, peer := range b.peerRanks() {
		b.prepostPeer(nil, peer)
	}
}

// prepostPeer allocates and posts one peer's share of the eager machinery:
// the send-bounce credits plus the control and data receive rings.
// Registration is free of charge. A nil pr preposts the rings at MPI_Init;
// otherwise they are posted, at a cost, in the context of the calling proc
// (LazyConnect worlds wire pairs on first use, from whichever rank's send
// touched the pair): the modeled cost of lazy setup is the ring posting,
// not re-pinning.
func (b *vbind) prepostPeer(pr *sim.Proc, peer int) {
	size := hdrBytes + b.p.world.cfg.EagerThreshold
	b.sendBounces(size)
	b.recvBounces(pr, peer, size, false)
	// The data QP only ever receives header-sized FINs.
	b.recvBounces(pr, peer, hdrBytes, true)
}

// newBounces allocates and registers one slab of a peer's EagerCredits
// bounces of size bytes and gives each the next slot.
func (b *vbind) newBounces(size int) []bounceBuf {
	p := b.p
	bufs := p.host.Mem.AllocN(p.world.cfg.EagerCredits, size)
	regs := p.host.NIC().Reg().RegisterFreeEach(bufs)
	slab := make([]bounceBuf, len(bufs))
	for i := range slab {
		slab[i] = bounceBuf{buf: &bufs[i], reg: &regs[i], slot: len(b.bounces)}
		b.bounces = append(b.bounces, &slab[i])
	}
	return slab
}

// sendBounces adds one peer's send-bounce credits to the free pool.
func (b *vbind) sendBounces(size int) {
	slab := b.newBounces(size)
	for i := range slab {
		b.sendFree = append(b.sendFree, &slab[i])
	}
}

// recvBounces allocates peer's receive ring of size-byte bounces for its
// control QP, or for its data QP if data, and posts it (see postRecv).
func (b *vbind) recvBounces(pr *sim.Proc, peer, size int, data bool) {
	slab := b.newBounces(size)
	b.recvQP(peer, data).ReserveRecv(len(slab))
	for i := range slab {
		bb := &slab[i]
		bb.peer, bb.recv, bb.data = peer, true, data
		b.postRecv(pr, bb)
	}
}

// ensurePeer wires the pair with `rank` on first communication
// (LazyConnect worlds); eagerly-connected worlds always hit the fast path.
func (b *vbind) ensurePeer(pr *sim.Proc, rank int) {
	if _, ok := b.qps[rank]; ok {
		return
	}
	b.p.world.connectPair(pr, b.p.rank, rank)
}

// peerRanks returns the connected peers in ascending rank order.
func (b *vbind) peerRanks() []int {
	peers := make([]int, 0, len(b.qps))
	for r := range b.qps {
		peers = append(peers, r)
	}
	sort.Ints(peers)
	return peers
}

func (b *vbind) newReq(req *Request) uint64 {
	b.nextReq++
	b.reqs[b.nextReq] = req
	return b.nextReq
}

func (b *vbind) takeReq(id uint64) *Request {
	req, ok := b.reqs[id]
	if !ok {
		panic(fmt.Sprintf("mpi r%d: unknown request id %d", b.p.rank, id))
	}
	delete(b.reqs, id)
	return req
}

// getSendBounce pops a free control/eager buffer, progressing until one is
// recycled if the pool is dry.
func (b *vbind) getSendBounce(pr *sim.Proc) *bounceBuf {
	b.progressUntil(pr, func() bool { return len(b.sendFree) > 0 })
	bb := b.sendFree[len(b.sendFree)-1]
	b.sendFree = b.sendFree[:len(b.sendFree)-1]
	return bb
}

// sendCtrl transmits a header-only control message on the control QP.
// cause names the event that motivated the message (an MPI call span, an
// arrival instant, a registration) for the causal DAG.
func (b *vbind) sendCtrl(pr *sim.Proc, dst int, hdr wireHdr, cause trace.Ref) {
	b.sendCtrlOn(pr, b.qps[dst], hdr, cause)
}

func (b *vbind) sendCtrlOn(pr *sim.Proc, qp verbs.QP, hdr wireHdr, cause trace.Ref) {
	bb := b.getSendBounce(pr)
	hdr.store(bb.reg)
	b.postSend(pr, qp, bb, hdrBytes, cause)
}

// postSend sends the first n bytes of a send bounce on qp.
func (b *vbind) postSend(pr *sim.Proc, qp verbs.QP, bb *bounceBuf, n int, cause trace.Ref) {
	bb.posted = true
	qp.PostSend(pr, verbs.WR{ID: bounceWR(bb), Op: verbs.OpSend, Local: bb.reg, Len: n, Cause: cause})
}

// isend implements standard and synchronous non-blocking sends. self is the
// causal ref of the enclosing MPI call span; the posted work requests carry
// it across the host/device boundary.
func (b *vbind) isend(pr *sim.Proc, req *Request, dst, tag int, buf *mem.Buffer, off, n int, sync bool, self trace.Ref) {
	p := b.p
	b.ensurePeer(pr, dst)
	b.drain(pr)
	if n <= p.world.cfg.EagerThreshold {
		p.EagerSends++
		p.ins.eager.Inc()
		p.eng().Trc().Instant(p.track, "send.eager",
			trace.I64("dst", int64(dst)), trace.I64("tag", int64(tag)), trace.I64("bytes", int64(n)))
		bb := b.getSendBounce(pr)
		hdr := wireHdr{kind: kEager, src: p.rank, tag: tag, size: n}
		if sync {
			hdr.kind = kEagerSyn
			hdr.reqA = b.newReq(req)
		}
		if n > 0 {
			// The eager copy: user buffer -> registered bounce (pays cold
			// page touches on the user buffer: Fig. 6's eager-size effect).
			p.host.Mem.Copy(pr, bb.buf, hdrBytes, buf, off, n)
		}
		hdr.store(bb.reg)
		b.postSend(pr, b.qps[dst], bb, hdrBytes+n, self)
		if !sync {
			req.done.Fire() // buffer is reusable after the copy
		}
		return
	}
	// Rendezvous: stash the source buffer on the request and send the RTS;
	// the CTS handler continues the protocol.
	p.RndvSends++
	p.ins.rndv.Inc()
	p.eng().Trc().Instant(p.track, "send.rts",
		trace.I64("dst", int64(dst)), trace.I64("tag", int64(tag)), trace.I64("bytes", int64(n)))
	req.buf, req.off, req.n = buf, off, n
	b.sendCtrl(pr, dst, wireHdr{kind: kRTS, src: p.rank, tag: tag, size: n, reqA: b.newReq(req)}, self)
}

// irecv implements the non-blocking receive. self is the causal ref of the
// enclosing MPI call span.
func (b *vbind) irecv(pr *sim.Proc, req *Request, self trace.Ref) {
	p := b.p
	b.drain(pr)
	if m := p.matchUnexpected(pr, req.src, req.tag); m != nil {
		b.deliverUnexpected(pr, m, req, self)
		return
	}
	p.posted = append(p.posted, req)
	p.notePosted()
}

// deliverUnexpected completes a receive against an unexpected-queue entry.
// self is the receive call's span ref; the parked message's arrival instant
// (m.cause) is what completed the request.
func (b *vbind) deliverUnexpected(pr *sim.Proc, m *umsg, req *Request, self trace.Ref) {
	p := b.p
	if m.n > req.n {
		panic(fmt.Sprintf("mpi r%d: %d-byte message truncated by %d-byte receive", p.rank, m.n, req.n))
	}
	req.status = Status{Source: m.src, Tag: m.tag, Count: m.n}
	if m.bounce != nil {
		// Parked eager payload: copy out of the bounce and recycle it.
		if m.n > 0 {
			p.host.Mem.Copy(pr, req.buf, req.off, m.bounce.buf, hdrBytes, m.n)
		}
		b.repostQ.Push(m.bounce)
		if m.sync {
			b.sendCtrl(pr, m.src, wireHdr{kind: kSyncAck, src: p.rank, reqB: m.senderReq}, self)
		}
		req.cause = m.cause
		req.done.Fire()
		return
	}
	// Unexpected RTS: run the receiver half of the rendezvous. The CTS is
	// enabled by this receive call (the RTS was already waiting).
	b.startRndvRecv(pr, m.src, m.tag, m.n, m.senderReq, req, self)
}

// startRndvRecv registers the receive buffer and returns the CTS. cause is
// the event that enabled the CTS (RTS arrival or the receive call); the
// registration span supersedes it when the pin was actually charged.
func (b *vbind) startRndvRecv(pr *sim.Proc, src, tag, n int, senderReq uint64, req *Request, cause trace.Ref) {
	p := b.p
	if n > req.n {
		panic(fmt.Sprintf("mpi r%d: %d-byte rendezvous truncated by %d-byte receive", p.rank, n, req.n))
	}
	req.status = Status{Source: src, Tag: tag, Count: n}
	// A cache hit returns a region whose RegRef names a long-finished
	// registration span; only a freshly-charged pin supersedes cause.
	_, m0, _ := b.regCache.Stats()
	region := b.regCache.Get(pr, req.buf, req.off, n)
	_, m1, _ := b.regCache.Stats()
	req.rndvRegion = region
	ctsCause := cause
	if m1 > m0 && region.RegRef != trace.RefNone {
		ctsCause = region.RegRef
	}
	b.sendCtrl(pr, src, wireHdr{
		kind: kCTS, src: p.rank, tag: tag, size: n,
		reqA: b.newReq(req), reqB: senderReq, rkey: region.Key,
	}, ctsCause)
}

// drain handles every already-delivered completion without blocking.
func (b *vbind) drain(pr *sim.Proc) {
	b.flushReposts(pr)
	for {
		comp, ok := b.cq.TryPoll()
		if !ok {
			return
		}
		b.handle(pr, comp)
	}
}

// flushReposts returns consumed bounces to their QPs. Reposting is batched
// off the message-delivery critical path, as MPICH does.
func (b *vbind) flushReposts(pr *sim.Proc) {
	for b.repostQ.Len() > 0 {
		b.postRecv(pr, b.repostQ.Pop())
	}
}

// progressUntil runs the MPI progress engine until cond holds.
func (b *vbind) progressUntil(pr *sim.Proc, cond func() bool) {
	for !cond() {
		b.flushReposts(pr)
		if cond() {
			return
		}
		comp := b.cq.Poll(pr)
		b.handle(pr, comp)
	}
}

// handle processes one completion: odd WR IDs are rendezvous writes, even
// ones name a bounce by slot.
func (b *vbind) handle(pr *sim.Proc, comp verbs.Completion) {
	if comp.WRID&1 != 0 {
		w, ok := b.rndv[comp.WRID]
		if !ok {
			panic(fmt.Sprintf("mpi r%d: completion for unknown WR %d", b.p.rank, comp.WRID))
		}
		delete(b.rndv, comp.WRID)
		// Data is on the wire reliably; release the pin and tell the
		// receiver (the FIN rides the data QP, ordered after the write),
		// then the send request is complete.
		b.regCache.Put(pr, w.region)
		b.sendCtrlOn(pr, b.dataQPs[w.peer], wireHdr{kind: kFIN, src: b.p.rank, reqB: w.peerReq}, comp.Cause)
		w.req.cause = comp.Cause
		w.req.done.Fire()
		return
	}
	slot := comp.WRID >> 1
	if slot >= uint64(len(b.bounces)) || !b.bounces[slot].posted {
		panic(fmt.Sprintf("mpi r%d: completion for unknown WR %d", b.p.rank, comp.WRID))
	}
	bb := b.bounces[slot]
	bb.posted = false
	if bb.recv {
		b.handleArrival(pr, bb, comp.Cause)
	} else {
		b.sendFree = append(b.sendFree, bb)
	}
}

// handleArrival dispatches one arrived channel message. cause is the causal
// ref of the device event that delivered it (the receive completion's
// placed/rx event).
func (b *vbind) handleArrival(pr *sim.Proc, bb *bounceBuf, cause trace.Ref) {
	p := b.p
	hdr := loadHdr(bb.reg)
	switch hdr.kind {
	case kEager, kEagerSyn:
		ref := p.eng().Trc().InstantR(p.track, "recv.eager", trace.Cause(cause),
			trace.I64("src", int64(hdr.src)), trace.I64("tag", int64(hdr.tag)), trace.I64("bytes", int64(hdr.size)))
		req := p.matchPosted(pr, hdr.src, hdr.tag)
		if req == nil {
			p.unexpected = append(p.unexpected, &umsg{
				src: hdr.src, tag: hdr.tag, n: hdr.size,
				sync: hdr.kind == kEagerSyn, bounce: bb, senderReq: hdr.reqA, cause: ref,
			})
			p.noteUnexpected()
			return // bounce stays parked until the matching receive
		}
		if hdr.size > req.n {
			panic(fmt.Sprintf("mpi r%d: %d-byte message truncated by %d-byte receive", p.rank, hdr.size, req.n))
		}
		if hdr.size > 0 {
			p.host.Mem.Copy(pr, req.buf, req.off, bb.buf, hdrBytes, hdr.size)
		}
		req.status = Status{Source: hdr.src, Tag: hdr.tag, Count: hdr.size}
		if hdr.kind == kEagerSyn {
			b.sendCtrl(pr, hdr.src, wireHdr{kind: kSyncAck, src: p.rank, reqB: hdr.reqA}, ref)
		}
		req.cause = ref
		req.done.Fire()
		b.repostQ.Push(bb)
	case kRTS:
		ref := p.eng().Trc().InstantR(p.track, "recv.rts", trace.Cause(cause),
			trace.I64("src", int64(hdr.src)), trace.I64("tag", int64(hdr.tag)), trace.I64("bytes", int64(hdr.size)))
		req := p.matchPosted(pr, hdr.src, hdr.tag)
		if req == nil {
			p.unexpected = append(p.unexpected, &umsg{src: hdr.src, tag: hdr.tag, n: hdr.size, senderReq: hdr.reqA, cause: ref})
			p.noteUnexpected()
		} else {
			b.startRndvRecv(pr, hdr.src, hdr.tag, hdr.size, hdr.reqA, req, ref)
		}
		b.repostQ.Push(bb)
	case kCTS:
		ref := p.eng().Trc().InstantR(p.track, "recv.cts", trace.Cause(cause),
			trace.I64("src", int64(hdr.src)), trace.I64("bytes", int64(hdr.size)))
		sreq := b.takeReq(hdr.reqB)
		_, m0, _ := b.regCache.Stats()
		region := b.regCache.Get(pr, sreq.buf, sreq.off, sreq.n)
		_, m1, _ := b.regCache.Stats()
		wrCause := ref
		if m1 > m0 && region.RegRef != trace.RefNone {
			wrCause = region.RegRef
		}
		id := b.nextRndv<<1 | 1
		b.nextRndv++
		b.rndv[id] = rndvWrite{peer: hdr.src, req: sreq, peerReq: hdr.reqA, region: region}
		b.dataQPs[hdr.src].PostSend(pr, verbs.WR{
			ID:        id,
			Op:        verbs.OpWrite,
			Local:     region,
			Len:       hdr.size,
			RemoteKey: hdr.rkey,
			Cause:     wrCause,
		})
		b.repostQ.Push(bb)
	case kFIN:
		ref := p.eng().Trc().InstantR(p.track, "recv.fin", trace.Cause(cause), trace.I64("src", int64(hdr.src)))
		rreq := b.takeReq(hdr.reqB)
		b.regCache.Put(pr, rreq.rndvRegion)
		rreq.cause = ref
		rreq.done.Fire()
		b.repostQ.Push(bb)
	case kSyncAck:
		req := b.takeReq(hdr.reqB)
		req.cause = cause
		req.done.Fire()
		b.repostQ.Push(bb)
	default:
		panic(fmt.Sprintf("mpi r%d: bad wire kind %d", p.rank, hdr.kind))
	}
}

// postRecv posts a receive bounce on the QP it serves, charging pr; a nil
// pr preposts it at MPI_Init, free of charge.
func (b *vbind) postRecv(pr *sim.Proc, bb *bounceBuf) {
	bb.posted = true
	qp, wr := b.recvQP(bb.peer, bb.data), verbs.WR{ID: bounceWR(bb), Op: verbs.OpRecv, Local: bb.reg}
	if pr == nil {
		qp.PrepostRecv(wr)
		return
	}
	qp.PostRecv(pr, wr)
}

// recvQP returns peer's data QP if data, else its control QP.
func (b *vbind) recvQP(peer int, data bool) verbs.QP {
	if data {
		return b.dataQPs[peer]
	}
	return b.qps[peer]
}

// waitArrival blocks until the next channel completion has been handled;
// Probe uses it to sleep between queue checks.
func (b *vbind) waitArrival(pr *sim.Proc) {
	comp := b.cq.Poll(pr)
	b.handle(pr, comp)
}
