// Package udapl implements a user-level DAT (Direct Access Transport) API
// over the verbs providers — the uDAPL interface the paper lists among the
// NetEffect RNIC's access paths ("NetEffect verbs, OpenFabrics verbs,
// standard sockets, SDP, uDAPL, and MPI") and names as future work.
//
// The shapes follow the uDAPL object model: an Interface Adapter (IA) per
// device, Endpoints (EP) connected pairwise, Event Dispatchers (EVD)
// delivering DTO completion events, and Local/Remote Memory Regions
// (LMR/RMR) gating all data transfer. It is a deliberately thin veneer: a
// DTO maps 1:1 onto a verbs work request, which is why the paper could
// reasonably expect uDAPL results to track the verbs results.
package udapl

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// EventType classifies EVD events.
type EventType int

// DTO event types.
const (
	DTOSendCompletion EventType = iota
	DTORecvCompletion
	DTOWriteCompletion
	DTOReadCompletion
)

// Event is one EVD entry.
type Event struct {
	Type   EventType
	Cookie uint64
	Len    int
	At     sim.Time
}

// IA is an opened interface adapter.
type IA struct {
	host *cluster.Host
}

// OpenIA opens the host's RDMA device. It fails (nil) for MX hosts, which
// have no DAT provider.
func OpenIA(h *cluster.Host) *IA {
	if h.NIC() == nil {
		return nil
	}
	return &IA{host: h}
}

// LMR is a registered local memory region.
type LMR struct {
	region *mem.Region
}

// Context returns the RMR context (the remote key) to advertise to peers.
func (l *LMR) Context() mem.RKey { return l.region.Key }

// RegisterLMR pins [off, off+n) of buf, charging the caller.
func (ia *IA) RegisterLMR(p *sim.Proc, buf *mem.Buffer, off, n int) *LMR {
	return &LMR{region: ia.host.NIC().Reg().Register(p, buf, off, n)}
}

// FreeLMR unpins the region.
func (ia *IA) FreeLMR(p *sim.Proc, l *LMR) {
	ia.host.NIC().Reg().Deregister(p, l.region)
}

// EVD is an event dispatcher backed by a completion queue.
type EVD struct {
	cq *verbs.CQ
}

// Wait blocks for the next event.
func (e *EVD) Wait(p *sim.Proc) Event {
	comp := e.cq.Poll(p)
	return toEvent(comp)
}

// Dequeue returns an event if one is pending.
func (e *EVD) Dequeue() (Event, bool) {
	comp, ok := e.cq.TryPoll()
	if !ok {
		return Event{}, false
	}
	return toEvent(comp), true
}

func toEvent(comp verbs.Completion) Event {
	ev := Event{Cookie: comp.WRID, Len: comp.Len, At: comp.At}
	switch comp.Op {
	case verbs.OpSend:
		ev.Type = DTOSendCompletion
	case verbs.OpRecv:
		ev.Type = DTORecvCompletion
	case verbs.OpWrite:
		ev.Type = DTOWriteCompletion
	case verbs.OpRead:
		ev.Type = DTOReadCompletion
	}
	return ev
}

// EP is a connected endpoint.
type EP struct {
	ia  *IA
	qp  verbs.QP
	evd *EVD
}

// EVD returns the endpoint's event dispatcher.
func (ep *EP) EVD() *EVD { return ep.evd }

// ConnectPair connects two endpoints between testbed hosts i and j, each
// with a private EVD (one merged CQ, DAT-style).
func ConnectPair(tb *cluster.Testbed, i, j int) (*EP, *EP) {
	if tb.Kind.IsMX() {
		panic("udapl: no DAT provider for MX testbeds")
	}
	qa, qb := tb.ConnectQP(i, j)
	mk := func(hostIdx int, qp verbs.QP) *EP {
		h := tb.Hosts[hostIdx]
		cq := verbs.NewCQ(tb.Eng, fmt.Sprintf("udapl/%d/evd", hostIdx), h.PollDetect())
		qp.SetCQs(cq, cq)
		return &EP{ia: OpenIA(h), qp: qp, evd: &EVD{cq: cq}}
	}
	return mk(i, qa), mk(j, qb)
}

// PostSend posts an untagged send DTO.
func (ep *EP) PostSend(p *sim.Proc, cookie uint64, lmr *LMR, off, n int) {
	ep.qp.PostSend(p, verbs.WR{ID: cookie, Op: verbs.OpSend, Local: lmr.region, LocalOff: off, Len: n})
}

// PostRecv posts a receive DTO.
func (ep *EP) PostRecv(p *sim.Proc, cookie uint64, lmr *LMR, off, n int) {
	ep.qp.PostRecv(p, verbs.WR{ID: cookie, Op: verbs.OpRecv, Local: lmr.region, LocalOff: off, Len: n})
}

// PostRDMAWrite posts an RDMA write DTO to the remote region named by
// rmrContext.
func (ep *EP) PostRDMAWrite(p *sim.Proc, cookie uint64, lmr *LMR, off, n int, rmrContext mem.RKey, remoteOff int) {
	ep.qp.PostSend(p, verbs.WR{
		ID: cookie, Op: verbs.OpWrite,
		Local: lmr.region, LocalOff: off, Len: n,
		RemoteKey: rmrContext, RemoteOff: remoteOff,
	})
}

// PostRDMARead posts an RDMA read DTO from the remote region.
func (ep *EP) PostRDMARead(p *sim.Proc, cookie uint64, lmr *LMR, off, n int, rmrContext mem.RKey, remoteOff int) {
	ep.qp.PostSend(p, verbs.WR{
		ID: cookie, Op: verbs.OpRead,
		Local: lmr.region, LocalOff: off, Len: n,
		RemoteKey: rmrContext, RemoteOff: remoteOff,
	})
}

// Placements exposes tagged-placement notifications (polled-buffer style
// synchronization, as the paper's user-level tests use).
func (ep *EP) Placements() *sim.Queue[verbs.Placement] { return ep.qp.Placements() }
