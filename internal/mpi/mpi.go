// Package mpi implements the subset of MPI the paper's micro-benchmarks
// exercise: blocking and non-blocking tagged point-to-point communication,
// synchronous sends, wildcards, barrier and Wtime — over the three stacks:
//
//   - iWARP and InfiniBand use a verbs binding modeled on MPICH/MVAPICH
//     0.9.5: eager messages are copied through pre-registered bounce buffers
//     and sent over the Send/Recv channel; large messages use an RTS / CTS /
//     RDMA-Write / FIN rendezvous with a pin-down registration cache;
//     matching runs on the host with per-entry traversal costs.
//   - MXoM/MXoE use a thin binding over MX's native matched operations
//     (MPICH-MX): matching, unexpected handling, eager/rendezvous switching
//     and registration all happen inside the MX library/NIC.
//
// Progress is strictly call-driven, as in real MPICH: completions are only
// reaped inside MPI calls, which is what makes the paper's queue-usage and
// LogP receiver-overhead experiments meaningful.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// maxUserTag is the largest application tag; higher tags are reserved for
// internal protocols (barrier, sync-acks).
const maxUserTag = 1 << 28

const barrierTag = maxUserTag + 1

// Config holds the MPI implementation parameters for one network.
type Config struct {
	// EagerThreshold is the eager/rendezvous switch point.
	EagerThreshold int
	// EagerCredits is the number of bounce buffers per peer, each direction.
	// Flow control is not modeled; size this above the experiment's maximum
	// outstanding eager messages (the paper's deepest test preloads 1024).
	EagerCredits int
	// CallOverhead is host time per MPI call (argument checking, request
	// bookkeeping).
	CallOverhead sim.Time
	// MatchBase is the fixed cost of one matching attempt; PostedPerEntry
	// and UnexpPerEntry are the per-element traversal costs of the posted-
	// receive and unexpected-message queues (host-side; ignored by the MX
	// binding, whose matching runs on the NIC).
	MatchBase      sim.Time
	PostedPerEntry sim.Time
	UnexpPerEntry  sim.Time
	// RegCacheEntries bounds the pin-down cache (verbs bindings).
	RegCacheEntries int
	// WtimeCost is the MPI_Wtime call cost the paper says it accounts for.
	WtimeCost sim.Time
	// LazyConnect defers per-pair setup (QP connection, eager bounce rings,
	// send-bounce credits) until two ranks first communicate, instead of
	// wiring the full n*(n-1)/2 mesh at MPI_Init. Worlds whose ranks only
	// talk to a few peers — halo exchanges, trees, rings — then never pay
	// memory or setup for the pairs that stay silent, which is what makes
	// 128-rank worlds affordable. Verbs bindings only (MX is
	// connectionless). The connection cost is charged to the proc whose
	// send first touches the pair.
	LazyConnect bool
}

// ConfigFor returns the calibrated implementation profile for a stack.
func ConfigFor(kind cluster.Kind) Config {
	switch kind {
	case cluster.IWARP:
		// NetEffect MPICH 1.2.7: eager/rendezvous switch between 4 and 8 KB
		// (Fig. 4), mid-pack queue costs (Figs. 7, 8).
		return Config{
			EagerThreshold:  4 << 10,
			EagerCredits:    256,
			CallOverhead:    sim.Nanos(350),
			MatchBase:       sim.Nanos(50),
			PostedPerEntry:  sim.Nanos(18),
			UnexpPerEntry:   sim.Nanos(40),
			RegCacheEntries: 32,
			WtimeCost:       sim.Nanos(60),
		}
	case cluster.IB:
		// MVAPICH 0.9.5: 8 KB threshold, best posted-queue traversal
		// (Fig. 8's ~2.5x winner).
		return Config{
			EagerThreshold:  8 << 10,
			EagerCredits:    256,
			CallOverhead:    sim.Nanos(150),
			MatchBase:       sim.Nanos(40),
			PostedPerEntry:  sim.Nanos(7),
			UnexpPerEntry:   sim.Nanos(30),
			RegCacheEntries: 32,
			WtimeCost:       sim.Nanos(60),
		}
	case cluster.MXoM, cluster.MXoE:
		// MPICH-MX: a shim; matching parameters live in the MX model.
		return Config{
			EagerThreshold:  32 << 10, // informational; MX switches internally
			EagerCredits:    0,
			CallOverhead:    sim.Nanos(450),
			RegCacheEntries: 0,
			WtimeCost:       sim.Nanos(60),
		}
	}
	panic(fmt.Sprintf("mpi: bad kind %d", int(kind)))
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Request is the handle of a non-blocking operation. It is a small value:
// the operation's state lives in a request its process recycles once Wait
// returns, and the handle's generation tells the live request from a
// recycled one. A handle is dead after Wait: a second Wait, or Done on it,
// panics.
type Request struct {
	r   *request
	gen uint32
}

// request is the state of one non-blocking operation. A process keeps its
// finished requests on a free list and reuses them, completion and MX
// handles included; gen counts the reuses.
type request struct {
	done   sim.Completion
	gen    uint32
	p      *Process
	status Status

	// Receive matching state; buf, off and n also hold a verbs
	// rendezvous send's source.
	src, tag int
	buf      *mem.Buffer
	off, n   int

	// Pinned receive region (verbs rendezvous).
	rndvRegion *mem.Region

	// cause is the causal ref of the device/library event that completed
	// the request (last placed packet, FIN arrival, rendezvous ack);
	// Wait names it so the critical path crosses back into the host.
	cause trace.Ref

	// MX binding: the send or receive handle, and a synchronous send's
	// ack receive.
	mxh, mxAck mx.Handle
}

// live returns the request behind h, panicking if h is stale: its request
// was waited and has been recycled since.
func (h Request) live() *request {
	if h.r == nil || h.r.gen != h.gen {
		panic("mpi: request used after Wait")
	}
	return h.r
}

// Done reports completion without blocking.
func (h Request) Done() bool { return h.live().done.Fired() }

// Wait blocks until the operation completes, progressing the MPI engine,
// then recycles the request: the handle is dead once Wait returns.
// The recorded span names both the rank's previous call (program order) and
// the completing device event, so the causal DAG can tell time the rank
// spent blocked from time it spent computing.
func (h Request) Wait(pr *sim.Proc) Status {
	r := h.live()
	p := r.p
	t0 := pr.Now()
	if p.mxb != nil {
		p.mxb.wait(pr, r)
	} else {
		p.progressUntil(pr, r.done.Fired)
	}
	tr := p.eng().Trc()
	ref := tr.NewRef()
	tr.CompleteSelf(p.track, "mpi.wait", ref, int64(t0), int64(pr.Now()),
		trace.Cause(p.lastCall), trace.Cause(r.cause))
	p.lastCall = ref
	st := r.status
	p.freeRequest(r)
	return st
}

// newRequest returns an unfired request of p, recycled when one is free.
func (p *Process) newRequest() *request {
	var r *request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = &request{p: p}
	}
	r.done.Reset(p.eng())
	return r
}

// freeRequest retires r: its generation moves on, so every handle to it
// goes stale, and it drops what it references before joining the free
// list. The completion and MX handles keep their waiter arrays.
func (p *Process) freeRequest(r *request) {
	*r = request{done: r.done, gen: r.gen + 1, p: p, mxh: r.mxh, mxAck: r.mxAck}
	p.free = append(p.free, r)
}

// World is one MPI job: one rank per testbed host.
type World struct {
	tb    *cluster.Testbed
	cfg   Config
	procs []*Process
	pairs int // verbs QP-pair-connected rank pairs (eager: all; lazy: on demand)

	mxRanks map[*mx.Endpoint]int // MX worlds: the rank behind each endpoint
}

// worldInstruments aggregates the MPI-layer mechanisms the paper's figures
// rest on, summed over all ranks. Queue-depth gauges track the job-wide
// total via +1/-1 deltas, so their high-water mark is the global peak.
// Each rank holds its own handle set, registered on its host's shard
// engine's registry: metrics.Registry dedups by name, so on an unsharded
// (or single-shard) world every rank shares the same instruments as before,
// while sharded ranks count into their own shard's registry without a
// cross-goroutine data race.
type worldInstruments struct {
	eager, rndv             *metrics.Counter
	postedMatch, unexpSunk  *metrics.Counter
	postedDepth, unexpDepth *metrics.Gauge
	hPostedWalk, hUnexpWalk *metrics.Histogram
}

// Process is one MPI rank.
type Process struct {
	world *World
	rank  int
	host  *cluster.Host
	track string // trace track name, "mpi.rank<N>"
	ins   worldInstruments

	vb  *vbind
	mxb *mxbind

	posted     []*request
	unexpected []*umsg
	free       []*request // waited requests, for reuse

	// lastCall is the causal ref of the rank's most recent MPI call span;
	// each call names its predecessor, encoding program order as DAG edges.
	lastCall trace.Ref

	// Stats.
	EagerSends, RndvSends int64
	UnexpectedMatches     int64
	PostedMatches         int64
}

// LastCallRef returns the causal ref of this rank's most recent MPI call
// span (RefNone with tracing off). Breakdown drivers hand it to
// internal/causal as the terminal node of the operation under analysis.
func (p *Process) LastCallRef() trace.Ref { return p.lastCall }

// umsg is an unexpected-queue entry (verbs binding).
type umsg struct {
	src, tag, n int
	sync        bool
	bounce      *bounceBuf // eager payload parked in its bounce buffer
	senderReq   uint64     // rendezvous RTS: the sender's request id
	cause       trace.Ref  // arrival instant of the parked message
}

// NewWorld builds an MPI job over a testbed and completes MPI_Init-style
// setup (QP wiring, bounce-buffer pre-posting). Setup is free and never runs
// the engine: the world's clock still reads 0, so every workload starts at
// t = 0, and fault windows count from there.
func NewWorld(tb *cluster.Testbed, cfg Config) *World {
	w := &World{tb: tb, cfg: cfg}
	// Walk-length histograms: entries traversed per matching attempt.
	wb := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if tb.Kind.IsMX() {
		w.mxRanks = make(map[*mx.Endpoint]int, len(tb.Hosts))
	}
	for i, h := range tb.Hosts {
		p := &Process{world: w, rank: i, host: h, track: fmt.Sprintf("mpi.rank%d", i)}
		reg := tb.EngOf(i).Metrics()
		p.ins = worldInstruments{
			eager:       reg.Counter("mpi.eager_sends"),
			rndv:        reg.Counter("mpi.rndv_sends"),
			postedMatch: reg.Counter("mpi.posted_matches"),
			unexpSunk:   reg.Counter("mpi.unexpected_matches"),
			postedDepth: reg.Gauge("mpi.posted_queue_depth"),
			unexpDepth:  reg.Gauge("mpi.unexpected_queue_depth"),
			hPostedWalk: reg.Histogram("mpi.posted_walk_entries", wb),
			hUnexpWalk:  reg.Histogram("mpi.unexpected_walk_entries", wb),
		}
		if tb.Kind.IsMX() {
			p.mxb = newMXBind(p)
			w.mxRanks[h.MX] = i
		} else {
			p.vb = newVBind(p)
		}
		w.procs = append(w.procs, p)
	}
	if !tb.Kind.IsMX() && !cfg.LazyConnect {
		for i := 0; i < len(w.procs); i++ {
			for j := i + 1; j < len(w.procs); j++ {
				ca, cb := tb.ConnectQP(i, j) // control channel
				da, db := tb.ConnectQP(i, j) // rendezvous data channel
				w.procs[i].vb.addPeer(j, ca, da)
				w.procs[j].vb.addPeer(i, cb, db)
				w.pairs++
			}
		}
		for _, p := range w.procs {
			p.vb.prepost()
		}
	}
	return w
}

// connectPair wires ranks i and j on demand (LazyConnect worlds): QP pairs
// for the control and data channels, then each side's eager rings and send
// credits for just this peer. It runs synchronously inside the calling
// rank's proc — the engine is single-threaded, so the pair is fully wired
// before the triggering send proceeds, and the setup cost (registration-
// free, plus the posting overhead of the rings) lands on the proc whose
// traffic needed the pair, like a connection-establishment round would.
func (w *World) connectPair(pr *sim.Proc, i, j int) {
	ca, cb := w.tb.ConnectQP(i, j)
	da, db := w.tb.ConnectQP(i, j)
	w.procs[i].vb.addPeer(j, ca, da)
	w.procs[j].vb.addPeer(i, cb, db)
	w.procs[i].vb.prepostPeer(pr, j)
	w.procs[j].vb.prepostPeer(pr, i)
	w.pairs++
}

// ConnectedPairs returns how many rank pairs have verbs QPs wired (always
// the full mesh on eagerly-connected worlds; 0 for MX worlds, whose
// endpoints are connectionless).
func (w *World) ConnectedPairs() int { return w.pairs }

// DefaultWorld builds a testbed of `nodes` hosts on `kind` plus its MPI
// world with the calibrated profile.
func DefaultWorld(kind cluster.Kind, nodes int) (*cluster.Testbed, *World) {
	tb := cluster.New(kind, nodes)
	return tb, NewWorld(tb, ConfigFor(kind))
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Rank returns rank i's process.
func (w *World) Rank(i int) *Process { return w.procs[i] }

// Config returns the world's MPI profile.
func (w *World) Config() Config { return w.cfg }

// Rank returns this process's rank.
func (p *Process) Rank() int { return p.rank }

// Host returns the process's cluster node.
func (p *Process) Host() *cluster.Host { return p.host }

// RegCache returns the pin-down cache (nil for MX bindings, which manage
// registration inside the MX library).
func (p *Process) RegCache() *mem.RegCache {
	if p.vb != nil {
		return p.vb.regCache
	}
	return nil
}

// Wtime returns the current time, charging the timer-call cost the paper
// accounts for in its measurements.
func (p *Process) Wtime(pr *sim.Proc) sim.Time {
	pr.Sleep(p.world.cfg.WtimeCost)
	return pr.Now()
}

// Send is the blocking standard-mode send: it returns when the send buffer
// is reusable (eager: after the bounce copy; rendezvous: after the data has
// been RDMA-written and the FIN is posted).
func (p *Process) Send(pr *sim.Proc, dst, tag int, buf *mem.Buffer, off, n int) {
	req := p.Isend(pr, dst, tag, buf, off, n)
	req.Wait(pr)
}

// Ssend is the synchronous send: it additionally does not complete before
// the matching receive is posted at the destination.
func (p *Process) Ssend(pr *sim.Proc, dst, tag int, buf *mem.Buffer, off, n int) {
	req := p.isend(pr, dst, tag, buf, off, n, true)
	req.Wait(pr)
}

// Isend is the non-blocking standard-mode send.
func (p *Process) Isend(pr *sim.Proc, dst, tag int, buf *mem.Buffer, off, n int) Request {
	return p.isend(pr, dst, tag, buf, off, n, false)
}

func (p *Process) isend(pr *sim.Proc, dst, tag int, buf *mem.Buffer, off, n int, sync bool) Request {
	p.checkArgs(dst, tag, n)
	tr := p.eng().Trc()
	t0 := pr.Now()
	ref := tr.NewRef() // span ref, threaded into the work requests posted below
	pr.Sleep(p.world.cfg.CallOverhead)
	req := p.newRequest()
	if p.mxb != nil {
		p.mxb.isend(pr, req, dst, tag, buf, off, n, sync, ref)
	} else {
		p.vb.isend(pr, req, dst, tag, buf, off, n, sync, ref)
	}
	tr.CompleteSelf(p.track, "mpi.isend", ref, int64(t0), int64(pr.Now()),
		trace.Cause(p.lastCall), trace.I64("dst", int64(dst)), trace.I64("bytes", int64(n)))
	p.lastCall = ref
	return Request{req, req.gen}
}

// Recv is the blocking receive. src and tag may be AnySource/AnyTag.
func (p *Process) Recv(pr *sim.Proc, src, tag int, buf *mem.Buffer, off, n int) Status {
	req := p.Irecv(pr, src, tag, buf, off, n)
	return req.Wait(pr)
}

// Irecv is the non-blocking receive.
func (p *Process) Irecv(pr *sim.Proc, src, tag int, buf *mem.Buffer, off, n int) Request {
	if src != AnySource {
		p.checkRank(src)
	}
	if tag != AnyTag && (tag < 0 || tag >= maxUserTag+16) {
		panic(fmt.Sprintf("mpi: bad tag %d", tag))
	}
	tr := p.eng().Trc()
	t0 := pr.Now()
	ref := tr.NewRef()
	pr.Sleep(p.world.cfg.CallOverhead)
	req := p.newRequest()
	req.src, req.tag, req.buf, req.off, req.n = src, tag, buf, off, n
	if p.mxb != nil {
		p.mxb.irecv(pr, req, ref)
	} else {
		p.vb.irecv(pr, req, ref)
	}
	tr.CompleteSelf(p.track, "mpi.irecv", ref, int64(t0), int64(pr.Now()),
		trace.Cause(p.lastCall), trace.I64("src", int64(src)), trace.I64("bytes", int64(n)))
	p.lastCall = ref
	return Request{req, req.gen}
}

// WaitAll waits on every request.
func (p *Process) WaitAll(pr *sim.Proc, reqs []Request) {
	for _, r := range reqs {
		r.Wait(pr)
	}
}

// Barrier synchronizes all ranks with the dissemination algorithm:
// ceil(log2 n) rounds, each rank sending to (rank + 2^k) mod n and
// receiving from (rank - 2^k) mod n. The old central-coordinator barrier
// serialized 2(n-1) messages through rank 0, which was invisible on the
// paper's four-node testbed but swamps the collective being measured once
// multi-switch worlds reach 64+ ranks. The distinct distances keep rounds
// unambiguous under a single tag: 2^k < n, so no two rounds share a source.
func (p *Process) Barrier(pr *sim.Proc) {
	size := p.world.Size()
	none := p.host.Mem.Alloc(1)
	for mask := 1; mask < size; mask <<= 1 {
		to := (p.rank + mask) % size
		from := (p.rank - mask + size) % size
		p.Sendrecv(pr, to, barrierTag, none, 0, 0, from, barrierTag, none, 0, 0)
	}
}

// eng returns the engine that executes this rank's events: the host's
// shard engine in a sharded testbed, the world engine otherwise.
func (p *Process) eng() *sim.Engine { return p.world.tb.EngOf(p.rank) }

func (p *Process) checkArgs(dst, tag, n int) {
	p.checkRank(dst)
	if dst == p.rank {
		panic("mpi: self-send not supported")
	}
	if tag < 0 || tag >= maxUserTag+16 {
		panic(fmt.Sprintf("mpi: bad tag %d", tag))
	}
	if n < 0 {
		panic(fmt.Sprintf("mpi: negative count %d", n))
	}
}

func (p *Process) checkRank(r int) {
	if r < 0 || r >= len(p.world.procs) {
		panic(fmt.Sprintf("mpi: bad rank %d", r))
	}
}

// progressUntil advances the MPI engine until cond holds. Only meaningful
// for the verbs bindings; MX requests complete via their own completions.
func (p *Process) progressUntil(pr *sim.Proc, cond func() bool) {
	if p.mxb != nil {
		panic("mpi: progressUntil on an MX binding")
	}
	p.vb.progressUntil(pr, cond)
}

// matchPosted walks the posted-receive queue for (src, tag), charging the
// per-entry traversal cost, and removes and returns the match.
func (p *Process) matchPosted(pr *sim.Proc, src, tag int) *request {
	cfg := p.world.cfg
	ins := &p.ins
	sp := p.eng().Trc().Begin(p.track, "match.posted", trace.I64("depth", int64(len(p.posted))))
	pr.Sleep(cfg.MatchBase)
	walked := 0
	for i, req := range p.posted {
		pr.Sleep(cfg.PostedPerEntry)
		walked++
		if (req.src == AnySource || req.src == src) && (req.tag == AnyTag || req.tag == tag) {
			p.posted = append(p.posted[:i], p.posted[i+1:]...)
			p.PostedMatches++
			ins.postedMatch.Inc()
			ins.hPostedWalk.Observe(float64(walked))
			ins.postedDepth.Add(-1)
			sp.End(trace.I64("walked", int64(walked)), trace.Bool("hit", true))
			return req
		}
	}
	ins.hPostedWalk.Observe(float64(walked))
	sp.End(trace.I64("walked", int64(walked)), trace.Bool("hit", false))
	return nil
}

// matchUnexpected walks the unexpected queue for a receive (src, tag may be
// wildcards), charging the per-entry cost, and removes and returns the match.
func (p *Process) matchUnexpected(pr *sim.Proc, src, tag int) *umsg {
	cfg := p.world.cfg
	ins := &p.ins
	sp := p.eng().Trc().Begin(p.track, "match.unexpected", trace.I64("depth", int64(len(p.unexpected))))
	walked := 0
	for i, m := range p.unexpected {
		pr.Sleep(cfg.UnexpPerEntry)
		walked++
		if (src == AnySource || src == m.src) && (tag == AnyTag || tag == m.tag) {
			p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
			p.UnexpectedMatches++
			ins.unexpSunk.Inc()
			ins.hUnexpWalk.Observe(float64(walked))
			ins.unexpDepth.Add(-1)
			sp.End(trace.I64("walked", int64(walked)), trace.Bool("hit", true))
			return m
		}
	}
	ins.hUnexpWalk.Observe(float64(walked))
	sp.End(trace.I64("walked", int64(walked)), trace.Bool("hit", false))
	return nil
}

// notePosted records the enqueue of a posted receive (gauge + trace sample).
func (p *Process) notePosted() {
	p.ins.postedDepth.Add(1)
	p.eng().Trc().Counter(p.track, "posted_depth", int64(len(p.posted)))
}

// noteUnexpected records the enqueue of an unexpected message.
func (p *Process) noteUnexpected() {
	p.ins.unexpDepth.Add(1)
	p.eng().Trc().Counter(p.track, "unexpected_depth", int64(len(p.unexpected)))
}

// Iprobe checks, without blocking or receiving, whether a message matching
// (src, tag) is available. It drains pending completions first, so it also
// serves as an explicit progress call. MX testbeds are not supported (their
// unexpected queue lives in the MX library, which exposes no peek).
func (p *Process) Iprobe(pr *sim.Proc, src, tag int) (Status, bool) {
	if p.mxb != nil {
		panic("mpi: Iprobe is not supported on the MPICH-MX binding")
	}
	pr.Sleep(p.world.cfg.CallOverhead)
	p.vb.drain(pr)
	cfg := p.world.cfg
	for _, m := range p.unexpected {
		pr.Sleep(cfg.UnexpPerEntry)
		if (src == AnySource || src == m.src) && (tag == AnyTag || tag == m.tag) {
			return Status{Source: m.src, Tag: m.tag, Count: m.n}, true
		}
	}
	return Status{}, false
}

// Probe blocks until a message matching (src, tag) is available and returns
// its envelope without receiving it.
func (p *Process) Probe(pr *sim.Proc, src, tag int) Status {
	for {
		if st, ok := p.Iprobe(pr, src, tag); ok {
			return st
		}
		// Block for the next arrival, then re-check.
		p.vb.waitArrival(pr)
	}
}

// Sendrecv performs a combined send and receive, safe against head-to-head
// exchanges (both implemented as the non-blocking pair).
func (p *Process) Sendrecv(pr *sim.Proc, dst, stag int, sbuf *mem.Buffer, soff, sn int,
	src, rtag int, rbuf *mem.Buffer, roff, rn int) Status {
	sreq := p.Isend(pr, dst, stag, sbuf, soff, sn)
	rreq := p.Irecv(pr, src, rtag, rbuf, roff, rn)
	st := rreq.Wait(pr)
	sreq.Wait(pr)
	return st
}
