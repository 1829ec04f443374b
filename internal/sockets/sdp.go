package sockets

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// SDP (Sockets Direct Protocol) over the RDMA verbs providers. Small sends
// use the buffered-copy (bcopy) path: the payload rides the Send/Recv
// channel through pre-registered private buffers. Large sends switch to
// zero-copy: the source advertises its pinned buffer (SrcAvail), the sink
// replies with its pinned receive buffer (SinkAvail), the source RDMA
// Writes straight into it and finishes with RdmaWrCompl. A kernel-context
// progress engine, event handlers on the endpoint's completion queue,
// drives the protocol, so SDP — unlike the paper's call-driven MPI
// stacks — makes independent progress.
const (
	sdpBcopyMax = 16 << 10

	// Wire header: kind(1) pad(3) len(4) id(8) rkey(4).
	sdpHdr = 20

	sdpData      byte = 1
	sdpSrcAvail  byte = 2
	sdpSinkAvail byte = 3
	sdpWrCompl   byte = 4
)

// SDPConfig sizes the SDP channel.
type SDPConfig struct {
	// Credits is the private-buffer ring depth per side.
	Credits int
	// SyscallCost is charged per send()/recv() call.
	SyscallCost sim.Time
}

// DefaultSDPConfig returns the standard channel sizing.
func DefaultSDPConfig() SDPConfig {
	return SDPConfig{Credits: 64, SyscallCost: sim.Micros(1.2)}
}

// rxItem is one stream-ordered unit at the receiver: either bcopy bytes (a
// view of the private buffer they arrived in) or a zero-copy advertisement.
type rxItem struct {
	data *mem.View
	src  *srcAvail
}

type srcAvail struct {
	n  int
	id uint64
}

// recvReq is one blocked recv() call.
type recvReq struct {
	buf    *mem.Buffer
	off, n int
	done   *sim.Completion
	zcopy  bool        // satisfied by RDMA write (no copy-out needed)
	region *mem.Region // sink pin for a zcopy receive
}

type zcopySend struct {
	region *mem.Region
	done   *sim.Completion
}

// ctrlMsg is one SDP message on its way out through sendCtrlThen, pooled
// on the engine: its header fields, the bcopy payload (src, n at off),
// and the continuation fn(arg) that runs once it is posted.
type ctrlMsg struct {
	s    *sdp
	kind byte
	n    int
	id   uint64
	rkey mem.RKey
	src  *mem.Buffer
	off  int
	fn   func(any)
	arg  any
}

type sdpBounce struct {
	buf *mem.Buffer
	reg *mem.Region
}

type sdpWR struct {
	bounce *sdpBounce
	write  *zcopySend
	id     uint64
}

// sdp is one side of an SDP socket.
type sdp struct {
	eng  *sim.Engine
	name string
	cfg  SDPConfig
	host *cluster.Host
	qp   verbs.QP
	regs *mem.RegCache
	msgs *sim.FreeList[ctrlMsg]

	sendFree []*sdpBounce
	items    sim.Ring[rxItem]
	itemOff  int // bytes of the head item's data already copied out
	recvQ    sim.Ring[*recvReq]
	zwait    *recvReq // recv whose zcopy write is in flight
	// The zcopy match in flight for zwait: the source's id, and the
	// continuation of the match call that started it.
	zid   uint64
	zthen func(any)
	zarg  any

	cq      *verbs.CQ
	wrs     map[uint64]*sdpWR
	nextWR  uint64
	nextID  uint64
	pending map[uint64]*zcopySend
	// The progress engine handles one completion at a time: the work
	// request it belongs to; for a receive, the private buffer to repost
	// once it is handled; for a WrCompl, the zcopy receive it completes.
	cur      *sdpWR
	rxBounce *sdpBounce
	sunk     *recvReq
}

// NewSDPPair builds two SDP endpoints over a fresh two-node testbed of the
// given verbs stack (cluster.IWARP or cluster.IB). The testbed's engine
// drives both endpoints. Setup (the pinned private-buffer rings, the
// receive half pre-posted) is free and never runs the engine, so the
// pair's clock still reads 0.
func NewSDPPair(kind cluster.Kind, cfg SDPConfig) (*cluster.Testbed, Endpoint, Endpoint) {
	tb := cluster.New(kind, 2)
	qa, qb := tb.ConnectQP(0, 1)
	return tb, newSDP(tb, 0, qa, cfg), newSDP(tb, 1, qb, cfg)
}

func newSDP(tb *cluster.Testbed, hostIdx int, qp verbs.QP, cfg SDPConfig) *sdp {
	h := tb.Hosts[hostIdx]
	s := &sdp{
		eng:     tb.Eng,
		name:    fmt.Sprintf("sdp%d", hostIdx),
		cfg:     cfg,
		host:    h,
		qp:      qp,
		wrs:     make(map[uint64]*sdpWR),
		pending: make(map[uint64]*zcopySend),
		msgs:    sim.FreeListOf[ctrlMsg](tb.Eng),
	}
	// One merged CQ so the progress engine waits on a single queue.
	s.cq = verbs.NewCQ(tb.Eng, s.name+"/cq", h.PollDetect())
	qp.SetCQs(s.cq, s.cq)
	// SDP learns of RDMA Write arrival from its WrCompl message, never from
	// the Placements log, so the queue pair stops logging there.
	qp.SetPlacementLog(false)
	s.regs = mem.NewRegCache(h.NIC().Reg(), 64)
	size := sdpHdr + sdpBcopyMax
	for i := 0; i < cfg.Credits; i++ {
		buf := h.Mem.Alloc(size)
		s.sendFree = append(s.sendFree, &sdpBounce{buf: buf, reg: h.NIC().Reg().RegisterFree(buf, 0, size)})
	}
	for i := 0; i < cfg.Credits; i++ {
		buf := h.Mem.Alloc(size)
		bb := &sdpBounce{buf: buf, reg: h.NIC().Reg().RegisterFree(buf, 0, size)}
		qp.PrepostRecv(s.recvWR(bb))
	}
	s.poll()
	return s
}

// Name implements Endpoint.
func (s *sdp) Name() string { return "SDP" }

func (s *sdp) newWR(w *sdpWR) uint64 {
	s.nextWR++
	s.wrs[s.nextWR] = w
	return s.nextWR
}

// recvWR is the receive work request of private buffer bb.
func (s *sdp) recvWR(bb *sdpBounce) verbs.WR {
	return verbs.WR{ID: s.newWR(&sdpWR{bounce: bb}), Op: verbs.OpRecv, Local: bb.reg}
}

// sendCtrl sends one SDP message from a private buffer; p waits until it
// is posted. A non-nil src makes it a bcopy data message carrying
// [off, off+n) of src.
func (s *sdp) sendCtrl(p *sim.Proc, kind byte, n int, id uint64, rkey mem.RKey, src *mem.Buffer, off int) {
	s.sendCtrlThen(kind, n, id, rkey, src, off, sim.Wake, p)
	p.Suspend()
}

// sendCtrlThen is sendCtrl for event handlers: fn(arg) runs once the
// message is posted.
func (s *sdp) sendCtrlThen(kind byte, n int, id uint64, rkey mem.RKey, src *mem.Buffer, off int, fn func(any), arg any) {
	m := s.msgs.Get()
	*m = ctrlMsg{s: s, kind: kind, n: n, id: id, rkey: rkey, src: src, off: off, fn: fn, arg: arg}
	sendMsg(m)
}

// sendMsg takes a free private buffer for message v, polling every
// microsecond while the ring is full (the progress engine returns buffers
// as their sends complete), then fills and posts it.
func sendMsg(v any) {
	m := v.(*ctrlMsg)
	s := m.s
	if len(s.sendFree) == 0 {
		s.eng.AfterArg(sim.Microsecond, sendMsg, m)
		return
	}
	bb := s.sendFree[len(s.sendFree)-1]
	s.sendFree = s.sendFree[:len(s.sendFree)-1]
	var hdr [sdpHdr]byte
	hdr[0] = m.kind
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.n))
	binary.LittleEndian.PutUint64(hdr[8:], m.id)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(m.rkey))
	bb.buf.Store(0, hdr[:])
	ln := sdpHdr
	if m.src != nil {
		bb.buf.CopyFrom(sdpHdr, m.src, m.off, m.n)
		ln += m.n
	}
	fn, arg := m.fn, m.arg
	s.msgs.Put(m)
	s.qp.PostSendThen(verbs.WR{ID: s.newWR(&sdpWR{bounce: bb}), Op: verbs.OpSend, Local: bb.reg, Len: ln}, fn, arg)
}

// Send implements Endpoint.
func (s *sdp) Send(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sockets %s: send %d", s.name, n))
	}
	pr.Sleep(s.cfg.SyscallCost)
	if n <= sdpBcopyMax {
		// bcopy: one copy into the private buffer, then fire and forget.
		pr.Sleep(s.host.Mem.CopyRate.TxTime(n) + s.host.Mem.TouchCost(buf, off, n))
		s.sendCtrl(pr, sdpData, n, 0, 0, buf, off)
		return
	}
	// zcopy: pin, advertise, wait for the RDMA write round to complete.
	region := s.regs.Get(pr, buf, off, n)
	s.nextID++
	id := s.nextID
	z := &zcopySend{region: region, done: sim.NewCompletion(s.eng)}
	s.pending[id] = z
	s.sendCtrl(pr, sdpSrcAvail, n, id, 0, nil, 0)
	z.done.Wait(pr)
	s.regs.Put(pr, region)
}

// Recv implements Endpoint: enqueue the request, let matching (driven from
// both this call and the progress engine) satisfy it in stream order, then
// pay the copy-out for bcopy data. A zcopy match this call starts sends
// its SinkAvail on its own; the request completes only after that.
func (s *sdp) Recv(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	pr.Sleep(s.cfg.SyscallCost)
	req := &recvReq{buf: buf, off: off, n: n, done: sim.NewCompletion(s.eng)}
	s.recvQ.Push(req)
	s.match(nothing, nil)
	req.done.Wait(pr)
	if !req.zcopy {
		pr.Sleep(s.host.Mem.CopyRate.TxTime(n) + s.host.Mem.TouchCost(buf, off, n))
		s.copyOut(req)
	}
}

// buffered returns how many bcopy bytes head the item list before any
// zcopy advertisement.
func (s *sdp) buffered() int {
	total := -s.itemOff // the head item's bytes already copied out
	for i := 0; i < s.items.Len(); i++ {
		it := s.items.At(i)
		if it.src != nil {
			break
		}
		total += it.data.Len()
	}
	return total
}

// match pairs the head receive request with the head of the item stream,
// then runs fn(arg): at once, or for a zcopy advertisement once the sink
// buffer is pinned and the SinkAvail reply posted. The application and
// the progress engine both call it.
func (s *sdp) match(fn func(any), arg any) {
	if s.recvQ.Len() == 0 {
		fn(arg)
		return
	}
	req := s.recvQ.Peek()
	if s.zwait == req {
		fn(arg) // zcopy transfer in flight
		return
	}
	if s.items.Len() > 0 && s.items.Peek().src != nil {
		sa := s.items.Pop().src
		if sa.n != req.n {
			panic(fmt.Sprintf("sockets %s: zcopy item %dB vs recv %dB (boundary mismatch)", s.name, sa.n, req.n))
		}
		req.zcopy = true
		s.zwait, s.zid, s.zthen, s.zarg = req, sa.id, fn, arg
		s.regs.GetThen(req.buf, req.off, req.n, sinkPinned, s)
		return
	}
	if s.buffered() >= req.n {
		// Enough buffered data: release the request; the application pays
		// the copy-out in its own context (copyOut). Only one request can
		// consume the head bytes until copyOut runs.
		s.recvQ.Pop()
		req.done.Fire()
	}
	fn(arg)
}

// sinkPinned answers the zcopy advertisement matched to endpoint v's
// zwait with a SinkAvail naming the pinned sink region r.
func sinkPinned(r *mem.Region, v any) {
	s := v.(*sdp)
	req, fn, arg := s.zwait, s.zthen, s.zarg
	s.zthen, s.zarg = nil, nil
	req.region = r
	s.sendCtrlThen(sdpSinkAvail, req.n, s.zid, r.Key, nil, 0, fn, arg)
}

// nothing is the continuation of a call that waits for nothing.
func nothing(any) {}

// copyOut moves req.n head bytes of the item stream into the user buffer.
func (s *sdp) copyOut(req *recvReq) {
	off, need := req.off, req.n
	for need > 0 {
		v := s.items.Peek().data
		take := min(v.Len()-s.itemOff, need)
		v.CopyTo(req.buf, off, s.itemOff, take)
		off, need, s.itemOff = off+take, need-take, s.itemOff+take
		if s.itemOff == v.Len() {
			s.items.Pop()
			s.itemOff = 0
		}
	}
	// The stream head moved: another request may now be eligible; the
	// next arrival or recv() matches it. Fire-and-check is enough for the
	// benchmark's sequential recv() usage.
}

// poll waits for the next completion on the merged CQ and hands it to the
// progress engine.
func (s *sdp) poll() { s.cq.PollThen(progress, s) }

// progress is SDP's kernel-context protocol engine, endpoint v's handler
// of each completion in turn. Each handling chain ends by polling for the
// next one.
func progress(comp verbs.Completion, v any) {
	s := v.(*sdp)
	s.cur = s.wrs[comp.WRID]
	delete(s.wrs, comp.WRID)
	if comp.Op == verbs.OpRecv {
		s.handleRecv()
	} else {
		s.handleSend()
	}
}

// polled is the continuation that ends a handling chain.
func polled(v any) { v.(*sdp).poll() }

func (s *sdp) handleSend() {
	w := s.cur
	if w.write != nil {
		// RDMA write done: notify the sink, release the sender.
		s.sendCtrlThen(sdpWrCompl, 0, w.id, 0, nil, 0, writeNotified, s)
		return
	}
	if w.bounce != nil {
		s.sendFree = append(s.sendFree, w.bounce)
	}
	s.poll()
}

func writeNotified(v any) {
	s := v.(*sdp)
	s.cur.write.done.Fire()
	s.poll()
}

func (s *sdp) handleRecv() {
	bb := s.cur.bounce
	s.rxBounce = bb
	var hdr [sdpHdr]byte
	bb.buf.Load(hdr[:], 0)
	kind := hdr[0]
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	id := binary.LittleEndian.Uint64(hdr[8:])
	rkey := mem.RKey(binary.LittleEndian.Uint32(hdr[16:]))
	switch kind {
	case sdpData:
		// The bytes stay in the private buffer, which is reposted below: a
		// later arrival into it freezes the view first.
		data := bb.buf.View(sdpHdr, n)
		s.items.Push(rxItem{data: data})
		data.Release()
		s.match(repost, s)
	case sdpSrcAvail:
		s.items.Push(rxItem{src: &srcAvail{n: n, id: id}})
		s.match(repost, s)
	case sdpSinkAvail:
		z, ok := s.pending[id]
		if !ok {
			panic(fmt.Sprintf("sockets %s: SinkAvail for unknown id %d", s.name, id))
		}
		delete(s.pending, id)
		s.qp.PostSendThen(verbs.WR{
			ID:        s.newWR(&sdpWR{write: z, id: id}),
			Op:        verbs.OpWrite,
			Local:     z.region,
			Len:       z.region.Len,
			RemoteKey: rkey,
		}, repost, s)
	case sdpWrCompl:
		if s.zwait == nil {
			panic(fmt.Sprintf("sockets %s: WrCompl with no zcopy recv in flight", s.name))
		}
		s.sunk = s.zwait
		s.zwait = nil
		s.recvQ.Pop()
		s.regs.PutThen(s.sunk.region, sinkDone, s)
	default:
		panic(fmt.Sprintf("sockets %s: bad SDP kind %d", s.name, kind))
	}
}

// sinkDone completes the zcopy receive of endpoint v once its sink region
// is released, and matches the next.
func sinkDone(v any) {
	s := v.(*sdp)
	req := s.sunk
	s.sunk = nil
	req.done.Fire()
	s.match(repost, s)
}

// repost hands the received message's private buffer back to the receive
// queue, then polls for the next completion.
func repost(v any) {
	s := v.(*sdp)
	s.qp.PostRecvThen(s.recvWR(s.rxBounce), polled, s)
}
