package verbs

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Device is what every queue-pair front end on one NIC shares: the engine,
// the device name (trace track and queue-name prefix), the host-side cost
// of posting a work request, the completion poll granularity, the bus the
// doorbells cross, and ToHost, which books a device-to-host DMA write of
// n bytes starting now and returns when the bytes are visible in host
// memory. The provider builds one per NIC and hands every QP a pointer.
type Device struct {
	Eng          *sim.Engine
	Name         string
	PostOverhead sim.Time
	PollDetect   sim.Time
	Bus          *pci.Bus
	ToHost       func(n int) sim.Time
}

// Inbound assembles one incoming Send message: got counts the bytes that
// have arrived so far, buf holds them while no receive is matched, and
// cause tracks the rx pass of the most recent piece, so a deferred
// (early-arrival) completion still names what enabled it.
type Inbound struct {
	got   int
	buf   []byte
	cause trace.Ref
}

// Front is the queue-pair front end both standards define alike: posting
// with its doorbells, the send-queue hand-off to the engine, matching
// arriving Sends to posted receives (or holding them as early arrivals),
// and the completion and placement queues. The iWARP and IB queue pairs
// embed it and keep only their engines behind it. The zero value is not
// usable; build one with NewFront.
type Front struct {
	dev *Device
	qpn int

	scq    *CQ
	rcq    *CQ
	places *sim.Queue[Placement]
	sendQ  *sim.Queue[WR]

	recvQ sim.Ring[WR]       // posted receive work requests
	early sim.Ring[*Inbound] // completed Sends that found no posted receive
	cur   *Inbound           // in-assembly Send message
	curWR *WR                // matched receive for cur, nil if none was posted

	// Work requests whose doorbell is still crossing the bus, oldest first.
	// Doorbells on one bus arrive in the order they were rung, so the
	// event for the i-th post always pops the i-th request.
	sqBells, rqBells sim.Ring[WR]

	// logPlaces gates the Placements log (see SetPlacementLog).
	logPlaces bool
}

// NewFront returns the front end of queue pair qpn on dev.
func NewFront(dev *Device, qpn int) Front {
	return Front{
		dev:       dev,
		qpn:       qpn,
		scq:       NewCQ(dev.Eng, dev.Name+"/scq", dev.PollDetect),
		rcq:       NewCQ(dev.Eng, dev.Name+"/rcq", dev.PollDetect),
		places:    sim.NewQueue[Placement](dev.Eng, dev.Name+"/placements"),
		sendQ:     sim.NewQueue[WR](dev.Eng, dev.Name+"/sq"),
		logPlaces: true,
	}
}

// QPN implements QP.
func (f *Front) QPN() int { return f.qpn }

// SetCQs implements QP.
func (f *Front) SetCQs(scq, rcq *CQ) {
	f.scq = scq
	f.rcq = rcq
}

// SendCQ implements QP.
func (f *Front) SendCQ() *CQ { return f.scq }

// RecvCQ implements QP.
func (f *Front) RecvCQ() *CQ { return f.rcq }

// Placements implements QP.
func (f *Front) Placements() *sim.Queue[Placement] { return f.places }

// SetPlacementLog implements QP.
func (f *Front) SetPlacementLog(on bool) { f.logPlaces = on }

// PostSend implements QP: the host builds the WQE and rings the doorbell;
// the work request reaches the send queue when the doorbell lands.
func (f *Front) PostSend(p *sim.Proc, wr WR) {
	d := f.dev
	if wr.Len <= 0 {
		panic(fmt.Sprintf("%s: zero-length work request", d.Name))
	}
	p.Sleep(d.PostOverhead)
	now := d.Eng.Now()
	at := d.Bus.Doorbell(32)
	if tr := d.Eng.Trc(); tr.Enabled() {
		wr.Cause = tr.CompleteR(d.Name, "doorbell", int64(now), int64(at),
			trace.Cause(wr.Cause), trace.I64("qpn", int64(f.qpn)))
	}
	f.sqBells.Push(wr)
	d.Eng.AtArg(at, sendBell, f)
}

// sendBell lands the oldest send doorbell of front end v on the send queue.
func sendBell(v any) {
	f := v.(*Front)
	f.sendQ.Put(f.sqBells.Pop())
}

// PostRecv implements QP.
func (f *Front) PostRecv(p *sim.Proc, wr WR) {
	p.Sleep(f.dev.PostOverhead)
	at := f.dev.Bus.Doorbell(32)
	f.rqBells.Push(wr)
	f.dev.Eng.AtArg(at, recvBell, f)
}

// recvBell lands the oldest receive doorbell of front end v: an
// early-arrived Send consumes it at once, otherwise it joins the posted
// receives.
func recvBell(v any) {
	f := v.(*Front)
	wr := f.rqBells.Pop()
	if f.early.Len() > 0 {
		f.completeEarly(f.early.Pop(), wr)
		return
	}
	f.recvQ.Push(wr)
}

// NextSend blocks p until a posted send work request has landed and
// returns it, oldest first.
func (f *Front) NextSend(p *sim.Proc) WR { return f.sendQ.Get(p) }

// Arrive accounts one arriving piece of a Send: bytes [voff, voff+n) of
// view, at offset off of the message, caused by the rx pass cause. The
// first piece claims the oldest posted receive. When one was matched,
// Arrive returns it with the message's assembly, and the caller places the
// piece with its own host DMA write and calls RecvPlaced after it. With no
// receive posted, Arrive keeps the bytes, queues the message as early on
// its last piece, and returns a nil receive.
func (f *Front) Arrive(first, last bool, view *mem.View, voff, off, n int, cause trace.Ref) (*WR, *Inbound) {
	if first {
		f.cur = &Inbound{}
		f.curWR = nil
		if f.recvQ.Len() > 0 {
			wr := f.recvQ.Pop()
			f.curWR = &wr
		}
	}
	cur, wr := f.cur, f.curWR
	if cur == nil {
		panic(fmt.Sprintf("%s: send continuation with no assembly", f.dev.Name))
	}
	cur.got += n
	cur.cause = cause
	if wr != nil {
		if off+n > wr.Local.Len {
			panic(fmt.Sprintf("%s: send overruns %d-byte recv buffer", f.dev.Name, wr.Local.Len))
		}
	} else {
		cur.buf = view.Stash(cur.buf, off, voff, n)
	}
	if last {
		if wr == nil {
			f.early.Push(cur)
		}
		f.cur = nil
		f.curWR = nil
	}
	return wr, cur
}

// Complete posts the send-side completion of wr, caused by cause.
func (f *Front) Complete(wr *WR, cause trace.Ref) {
	f.scq.Push(Completion{WRID: wr.ID, Op: wr.Op, Len: wr.Len, At: f.dev.Eng.Now(), Cause: cause})
}

// RecvPlaced completes the receive work request wrID once the last piece
// of its message in has been written to host memory, recording the placed
// instant (caused by cause) and returning its ref.
func (f *Front) RecvPlaced(wrID uint64, in *Inbound, cause trace.Ref) trace.Ref {
	d := f.dev
	placed := d.Eng.Trc().InstantR(d.Name, "placed", trace.Cause(cause), trace.I64("bytes", int64(in.got)))
	f.rcq.Push(Completion{WRID: wrID, Op: OpRecv, Len: in.got, At: d.Eng.Now(), Cause: placed})
	return placed
}

// TaggedPlaced records n tagged bytes landing at offset off of region key
// (caused by cause): the placed instant and, while the log is on, a
// Placements entry. It returns the instant's ref.
func (f *Front) TaggedPlaced(key mem.RKey, off, n int, cause trace.Ref) trace.Ref {
	d := f.dev
	placed := d.Eng.Trc().InstantR(d.Name, "placed", trace.Cause(cause), trace.I64("bytes", int64(n)))
	if f.logPlaces {
		f.places.Put(Placement{Key: key, Off: off, Len: n, At: d.Eng.Now(), Cause: placed})
	}
	return placed
}

// completeEarly delivers a buffered early Send to a just-posted receive,
// paying the deferred host DMA write.
func (f *Front) completeEarly(m *Inbound, wr WR) {
	if m.got > wr.Local.Len {
		panic(fmt.Sprintf("%s: early send overruns %d-byte recv buffer", f.dev.Name, wr.Local.Len))
	}
	f.dev.Eng.At(f.dev.ToHost(m.got), func() {
		wr.Local.Store(wr.LocalOff, m.buf[:m.got])
		f.RecvPlaced(wr.ID, m, m.cause)
	})
}
