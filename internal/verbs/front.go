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

	posts *sim.FreeList[post] // posts paying the posting overhead, from the engine
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
//
// The QP's own CQs and placement queue are built on first use: a QP that
// SetCQs points elsewhere and whose placement log is off (every QP MPI
// and SDP wire) never allocates them.
type Front struct {
	dev *Device
	qpn int

	scq    *CQ                   // nil until SetCQs or first use
	rcq    *CQ                   // nil until SetCQs or first use
	places *sim.Queue[Placement] // nil until first use
	sendQ  sim.Stage[WR]         // landed send work requests, served by the NIC's send stage

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

// post is one PostSendThen or PostRecvThen paying the posting overhead:
// the work request and the continuation that runs once its doorbell rings.
type post struct {
	f   *Front
	wr  WR
	fn  func(any)
	arg any
}

// NewFront returns the front end of queue pair qpn on dev.
func NewFront(dev *Device, qpn int) Front {
	return Front{dev: dev, qpn: qpn, logPlaces: true}
}

// QPN implements QP.
func (f *Front) QPN() int { return f.qpn }

// SetCQs implements QP.
func (f *Front) SetCQs(scq, rcq *CQ) {
	f.scq = scq
	f.rcq = rcq
}

// SendCQ implements QP.
func (f *Front) SendCQ() *CQ {
	if f.scq == nil {
		f.scq = NewCQ(f.dev.Eng, f.dev.Name+"/scq", f.dev.PollDetect)
	}
	return f.scq
}

// RecvCQ implements QP.
func (f *Front) RecvCQ() *CQ {
	if f.rcq == nil {
		f.rcq = NewCQ(f.dev.Eng, f.dev.Name+"/rcq", f.dev.PollDetect)
	}
	return f.rcq
}

// Placements implements QP.
func (f *Front) Placements() *sim.Queue[Placement] {
	if f.places == nil {
		f.places = sim.NewQueue[Placement](f.dev.Eng, f.dev.Name+"/placements")
	}
	return f.places
}

// SetPlacementLog implements QP.
func (f *Front) SetPlacementLog(on bool) { f.logPlaces = on }

// PostSend implements QP: PostSendThen, with p waiting for the doorbell.
func (f *Front) PostSend(p *sim.Proc, wr WR) {
	f.PostSendThen(wr, sim.Wake, p)
	p.Suspend()
}

// PostSendThen implements QP: the host builds the WQE and rings the
// doorbell; the work request reaches the send queue when the doorbell
// lands.
func (f *Front) PostSendThen(wr WR, fn func(any), arg any) {
	if wr.Len <= 0 {
		panic(fmt.Sprintf("%s: zero-length work request", f.dev.Name))
	}
	f.dev.Eng.AfterArg(f.dev.PostOverhead, sendPosted, f.post(wr, fn, arg))
}

// post takes a pooled record of one post paying the posting overhead.
func (f *Front) post(wr WR, fn func(any), arg any) *post {
	d := f.dev
	if d.posts == nil {
		d.posts = sim.FreeListOf[post](d.Eng)
	}
	op := d.posts.Get()
	*op = post{f: f, wr: wr, fn: fn, arg: arg}
	return op
}

// sendPosted rings the doorbell of send post v.
func sendPosted(v any) {
	op := v.(*post)
	f, wr, fn, arg := op.f, op.wr, op.fn, op.arg
	f.dev.posts.Put(op)
	d := f.dev
	now := d.Eng.Now()
	at := d.Bus.Doorbell(32)
	if tr := d.Eng.Trc(); tr.Enabled() {
		wr.Cause = tr.CompleteR(d.Name, "doorbell", int64(now), int64(at),
			trace.Cause(wr.Cause), trace.I64("qpn", int64(f.qpn)))
	}
	f.sqBells.Push(wr)
	d.Eng.AtArg(at, sendBell, f)
	fn(arg)
}

// OnSend makes wake(arg) the NIC's send stage, woken when a send work
// request lands on an idle stage; it takes the work with TakeSend.
func (f *Front) OnSend(wake func(any), arg any) { f.sendQ.Init(f.dev.Eng, wake, arg) }

// TakeSend returns the oldest landed send work request, or reports false
// and idles the send stage when none is left.
func (f *Front) TakeSend() (WR, bool) { return f.sendQ.Next() }

// ReserveRecv implements QP.
func (f *Front) ReserveRecv(n int) { f.recvQ.Grow(n) }

// sendBell lands the oldest send doorbell of front end v on the send queue.
func sendBell(v any) {
	f := v.(*Front)
	f.sendQ.Put(f.sqBells.Pop())
}

// PostRecv implements QP: PostRecvThen, with p waiting for the doorbell.
func (f *Front) PostRecv(p *sim.Proc, wr WR) {
	f.PostRecvThen(wr, sim.Wake, p)
	p.Suspend()
}

// PostRecvThen implements QP.
func (f *Front) PostRecvThen(wr WR, fn func(any), arg any) {
	f.dev.Eng.AfterArg(f.dev.PostOverhead, recvPosted, f.post(wr, fn, arg))
}

// recvPosted rings the doorbell of receive post v.
func recvPosted(v any) {
	op := v.(*post)
	f, wr, fn, arg := op.f, op.wr, op.fn, op.arg
	f.dev.posts.Put(op)
	at := f.dev.Bus.Doorbell(32)
	f.rqBells.Push(wr)
	f.dev.Eng.AtArg(at, recvBell, f)
	fn(arg)
}

// PrepostRecv implements QP.
func (f *Front) PrepostRecv(wr WR) { f.recvQ.Push(wr) }

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
	f.SendCQ().Push(Completion{WRID: wr.ID, Op: wr.Op, Len: wr.Len, At: f.dev.Eng.Now(), Cause: cause})
}

// RecvPlaced completes the receive work request wrID once the last piece
// of its message in has been written to host memory, recording the placed
// instant (caused by cause) and returning its ref.
func (f *Front) RecvPlaced(wrID uint64, in *Inbound, cause trace.Ref) trace.Ref {
	d := f.dev
	placed := d.Eng.Trc().InstantR(d.Name, "placed", trace.Cause(cause), trace.I64("bytes", int64(in.got)))
	f.RecvCQ().Push(Completion{WRID: wrID, Op: OpRecv, Len: in.got, At: d.Eng.Now(), Cause: placed})
	return placed
}

// TaggedPlaced records n tagged bytes landing at offset off of region key
// (caused by cause): the placed instant and, while the log is on, a
// Placements entry. It returns the instant's ref.
func (f *Front) TaggedPlaced(key mem.RKey, off, n int, cause trace.Ref) trace.Ref {
	d := f.dev
	placed := d.Eng.Trc().InstantR(d.Name, "placed", trace.Cause(cause), trace.I64("bytes", int64(n)))
	if f.logPlaces {
		f.Placements().Put(Placement{Key: key, Off: off, Len: n, At: d.Eng.Now(), Cause: placed})
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
