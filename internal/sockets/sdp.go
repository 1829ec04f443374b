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
// progress thread drives the protocol, so SDP — unlike the paper's
// call-driven MPI stacks — makes independent progress.
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

	sendFree []*sdpBounce
	items    sim.Ring[rxItem]
	itemOff  int // bytes of the head item's data already copied out
	recvQ    sim.Ring[*recvReq]
	zwait    *recvReq // recv whose zcopy write is in flight

	cq      *verbs.CQ
	wrs     map[uint64]*sdpWR
	nextWR  uint64
	nextID  uint64
	pending map[uint64]*zcopySend
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
	}
	// One merged CQ so the progress thread can block on a single queue.
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
	tb.Eng.Go(s.name+"/progress", s.progress)
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

// getBounce pops a free private buffer; the progress loop recycles them.
func (s *sdp) getBounce(p *sim.Proc) *sdpBounce {
	for len(s.sendFree) == 0 {
		p.Sleep(sim.Microsecond) // ring full: wait for credits to return
	}
	bb := s.sendFree[len(s.sendFree)-1]
	s.sendFree = s.sendFree[:len(s.sendFree)-1]
	return bb
}

// sendCtrl sends one SDP message from a private buffer. A non-nil src
// makes it a bcopy data message carrying [off, off+n) of src.
func (s *sdp) sendCtrl(p *sim.Proc, kind byte, n int, id uint64, rkey mem.RKey, src *mem.Buffer, off int) {
	bb := s.getBounce(p)
	var hdr [sdpHdr]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[8:], id)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(rkey))
	bb.buf.Store(0, hdr[:])
	ln := sdpHdr
	if src != nil {
		bb.buf.CopyFrom(sdpHdr, src, off, n)
		ln += n
	}
	s.qp.PostSend(p, verbs.WR{ID: s.newWR(&sdpWR{bounce: bb}), Op: verbs.OpSend, Local: bb.reg, Len: ln})
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
// both this call and the progress loop) satisfy it in stream order, then
// pay the copy-out for bcopy data.
func (s *sdp) Recv(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	pr.Sleep(s.cfg.SyscallCost)
	req := &recvReq{buf: buf, off: off, n: n, done: sim.NewCompletion(s.eng)}
	s.recvQ.Push(req)
	s.match(pr)
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

// match pairs the head receive request with the head of the item stream.
// It runs in both application and progress context; completions make the
// wakeups safe from either.
func (s *sdp) match(p *sim.Proc) {
	for s.recvQ.Len() > 0 {
		req := s.recvQ.Peek()
		if s.zwait == req {
			return // zcopy transfer in flight
		}
		if s.items.Len() > 0 && s.items.Peek().src != nil {
			sa := s.items.Pop().src
			if sa.n != req.n {
				panic(fmt.Sprintf("sockets %s: zcopy item %dB vs recv %dB (boundary mismatch)", s.name, sa.n, req.n))
			}
			req.zcopy = true
			s.zwait = req
			req.region = s.regs.Get(p, req.buf, req.off, req.n)
			s.sendCtrl(p, sdpSinkAvail, req.n, sa.id, req.region.Key, nil, 0)
			return
		}
		if s.buffered() < req.n {
			return // not enough bcopy bytes yet
		}
		// Enough buffered data: release the request; the application pays
		// the copy-out in its own context (copyOut).
		s.recvQ.Pop()
		req.done.Fire()
		// Only one request can consume the head bytes until copyOut runs.
		return
	}
}

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
	// The stream head moved: another request may now be eligible, but
	// matching needs a proc context for registration; the progress loop
	// kicks it on its next completion. Fire-and-check is enough for the
	// benchmark's sequential recv() usage.
}

// progress is SDP's kernel-context protocol engine.
func (s *sdp) progress(p *sim.Proc) {
	for {
		comp := s.cq.Poll(p)
		if comp.Op == verbs.OpRecv {
			s.handleRecv(p, comp)
		} else {
			s.handleSend(p, comp)
		}
	}
}

func (s *sdp) handleSend(p *sim.Proc, comp verbs.Completion) {
	w := s.wrs[comp.WRID]
	delete(s.wrs, comp.WRID)
	if w.write != nil {
		// RDMA write done: notify the sink, release the sender.
		s.sendCtrl(p, sdpWrCompl, 0, w.id, 0, nil, 0)
		w.write.done.Fire()
		return
	}
	if w.bounce != nil {
		s.sendFree = append(s.sendFree, w.bounce)
	}
}

func (s *sdp) handleRecv(p *sim.Proc, comp verbs.Completion) {
	w := s.wrs[comp.WRID]
	delete(s.wrs, comp.WRID)
	bb := w.bounce
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
		s.match(p)
	case sdpSrcAvail:
		s.items.Push(rxItem{src: &srcAvail{n: n, id: id}})
		s.match(p)
	case sdpSinkAvail:
		z, ok := s.pending[id]
		if !ok {
			panic(fmt.Sprintf("sockets %s: SinkAvail for unknown id %d", s.name, id))
		}
		delete(s.pending, id)
		s.qp.PostSend(p, verbs.WR{
			ID:        s.newWR(&sdpWR{write: z, id: id}),
			Op:        verbs.OpWrite,
			Local:     z.region,
			Len:       z.region.Len,
			RemoteKey: rkey,
		})
	case sdpWrCompl:
		if s.zwait == nil {
			panic(fmt.Sprintf("sockets %s: WrCompl with no zcopy recv in flight", s.name))
		}
		req := s.zwait
		s.zwait = nil
		s.recvQ.Pop()
		s.regs.Put(p, req.region)
		req.done.Fire()
		s.match(p)
	default:
		panic(fmt.Sprintf("sockets %s: bad SDP kind %d", s.name, kind))
	}
	s.qp.PostRecv(p, s.recvWR(bb))
}
