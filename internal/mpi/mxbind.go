package mpi

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MX match-bit layout used by the MPICH-MX binding:
//
//	bits  0..31  tag
//	bits 32..55  source rank + 1
//	bit  62      synchronous send (receiver must return an ack)
//	bit  63      internal ack message
const (
	mxSyncBit = uint64(1) << 62
	mxAckBit  = uint64(1) << 63
	mxSrcMask = uint64(0x00FFFFFF) << 32
	mxTagMask = uint64(0xFFFFFFFF)
)

func mxBits(src, tag int) uint64 {
	return uint64(src+1)<<32 | uint64(uint32(tag))
}

// mxbind is the MPICH-MX shim: MPI matching maps directly onto MX matching.
type mxbind struct {
	p    *Process
	tiny *mem.Buffer // zero-byte send/recv scratch
}

func newMXBind(p *Process) *mxbind {
	return &mxbind{p: p, tiny: p.host.Mem.Alloc(16)}
}

func (b *mxbind) ep() *mx.Endpoint { return b.p.host.MX }

func (b *mxbind) peerEP(rank int) *mx.Endpoint { return b.p.world.procs[rank].host.MX }

func (b *mxbind) rankOf(e *mx.Endpoint) int {
	r, ok := b.p.world.mxRanks[e]
	if !ok {
		panic("mpi: unknown MX endpoint")
	}
	return r
}

func (b *mxbind) isend(pr *sim.Proc, req *request, dst, tag int, buf *mem.Buffer, off, n int, sync bool, self trace.Ref) {
	p := b.p
	if n <= p.world.cfg.EagerThreshold {
		p.EagerSends++
		p.ins.eager.Inc()
	} else {
		p.RndvSends++
		p.ins.rndv.Inc()
	}
	bits := mxBits(p.rank, tag)
	if sync {
		bits |= mxSyncBit
	}
	b.ep().IsendInto(pr, &req.mxh, b.peerEP(dst), bits, buf, off, n, self)
	if !sync {
		req.mxh.Done().OnFire(mxSent, req)
		return
	}
	// Synchronous send: also wait for the receiver's ack. Identical
	// concurrent Ssends share ack bits; FIFO matching keeps them paired.
	ackBits := mxAckBit | mxBits(dst, tag)
	b.ep().IrecvInto(pr, &req.mxAck, ackBits, ^uint64(0), b.tiny, 0, 0, self)
	req.mxh.Done().OnFire(mxSsent, req)
}

// mxSent completes send request v once its MX send has.
func mxSent(v any) {
	req := v.(*request)
	req.cause = req.mxh.Cause
	req.done.Fire()
}

// mxSsent follows synchronous send request v's MX send with its ack
// receive: the request completes once both have.
func mxSsent(v any) { v.(*request).mxAck.Done().OnFire(mxAcked, v) }

// mxAcked completes synchronous send request v once the receiver's ack
// has arrived.
func mxAcked(v any) {
	req := v.(*request)
	req.cause = req.mxAck.Cause
	req.done.Fire()
}

func (b *mxbind) irecv(pr *sim.Proc, req *request, self trace.Ref) {
	var mask uint64 = mxAckBit // regular receives never match internal acks
	var bits uint64
	if req.src != AnySource {
		mask |= mxSrcMask
		bits |= mxBits(req.src, 0)
	}
	if req.tag != AnyTag {
		mask |= mxTagMask
		bits |= uint64(uint32(req.tag))
	}
	b.ep().IrecvInto(pr, &req.mxh, bits, mask, req.buf, req.off, req.n, self)
	req.mxh.Done().OnFire(mxReceived, req)
}

// mxReceived completes receive request v once its MX receive has, and
// acknowledges a synchronous sender.
func mxReceived(v any) {
	req := v.(*request)
	p, h := req.p, &req.mxh
	b := p.mxb
	req.status = Status{Source: b.rankOf(h.Src), Tag: int(uint32(h.Match)), Count: h.Len}
	req.cause = h.Cause
	req.done.Fire()
	if h.Match&mxSyncBit != 0 {
		// The sender used Ssend: return the ack from a helper process
		// (the MX library does this inside its progress path).
		src := h.Src
		tag := int(uint32(h.Match))
		cause := h.Cause
		p.eng().Go(fmt.Sprintf("mpi/r%d/sync-ack", p.rank), func(ap *sim.Proc) {
			b.ep().IsendInto(ap, new(mx.Handle), src, mxAckBit|mxBits(p.rank, tag), b.tiny, 0, 0, cause)
		})
	}
}

// wait blocks on a request; MX completion polling costs are charged by the
// MX handle machinery, so this only adds the library's poll-detect hop.
func (b *mxbind) wait(pr *sim.Proc, req *request) {
	req.done.Wait(pr)
	pr.Sleep(b.ep().PollDetect())
}
