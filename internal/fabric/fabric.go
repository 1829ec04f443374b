// Package fabric models a full-duplex, lossless (by default) switched
// network. The default shape is the paper's testbed — four nodes on one
// 10-Gigabit Ethernet, InfiniBand or Myrinet switch — and NewWithTopology
// scales the same primitives into multi-switch leaf–spine fabrics with
// deterministic ECMP path selection (see topology.go).
//
// The model captures the three properties the experiments depend on:
// serialization at line rate on every link, per-hop latency (propagation and
// switch forwarding, cut-through or store-and-forward), and output-port
// contention inside the switch. Links are modeled with next-free-time
// bookkeeping rather than processes, which keeps the fabric allocation-free
// on the fast path and strictly deterministic.
//
// Forwarding has one semantic: a switch serves the frames contending for
// an output line in arrival order. Send books only the sender's own uplink;
// every later hop (trunk up, trunk down, destination egress) joins a queue
// on the line it heads for, and a drain at each arrival time books the
// line for the frames that arrived then, ordered by (source port,
// per-source send sequence). The same order holds however the world is
// split across engines (see sharding.go).
package fabric

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NodeID identifies a port on the network.
type NodeID int

// Frame is one unit of transmission (an Ethernet frame, an IB packet, a
// Myrinet packet). Bytes is the payload-plus-protocol-header size as seen by
// the NIC; the fabric adds Config.FrameOverhead on the wire (preamble,
// inter-frame gap, CRC and similar framing that no layer above ever sees).
type Frame struct {
	Src, Dst NodeID
	Bytes    int
	Payload  any

	// Flow identifies the connection the frame belongs to (the sending QP
	// number on the verbs stacks; zero where the source has no connection
	// id). Multi-switch topologies hash it — together with Src and Dst —
	// into the ECMP spine choice, so distinct connections between the same
	// host pair can take distinct paths while each connection stays on one
	// path (in-order delivery per flow, as real ECMP provides).
	Flow int

	// Corrupt marks the frame's payload as damaged on the wire. The fabric
	// still delivers it (the bits arrive, they are just wrong); the endpoint
	// decides what its protocol does about it — the iWARP RNIC burns receive
	// engine time and rejects the FPDU on the MPA CRC, leaving recovery to
	// the offloaded TCP. Injectors (internal/faults) set it from DropFn.
	Corrupt bool

	// ECN is the congestion-experienced mark: set by the fabric when the
	// frame reserves a shared line whose backlog exceeds the configured
	// marking threshold (see CongestionConfig). Endpoints that speak ECN
	// (the iWARP RNIC) echo it back to the sender; everyone else ignores it.
	// Never set unless SetCongestion armed a marking threshold.
	ECN bool

	// Background marks multi-tenant cross-traffic injected by a generator
	// (internal/congestion): the frame occupies every line of its path like
	// real traffic — building queues, earning ECN marks, eating tail drops —
	// but the fabric counts and discards it at the destination instead of
	// delivering it to the endpoint, which belongs to a tenant the
	// simulation does not model above the wire.
	Background bool

	// Cause is the causal ref of the event that handed the frame to the
	// fabric (a NIC tx-engine span). It rides the in-memory frame only —
	// never the wire byte count, so tracing cannot perturb timing. The
	// fabric replaces it hop by hop: on delivery it names the last
	// serialization span, which the receiving NIC consumes as the cause of
	// its rx processing. RefNone when tracing is off.
	Cause trace.Ref
}

// Endpoint receives frames. Deliver is called in engine context (from a
// scheduled event); implementations typically enqueue to a sim.Queue that a
// NIC process drains.
//
// The *Frame is valid only for the duration of the call: it lives in the
// fabric's pooled hop, which is recycled for another frame as soon as
// Deliver returns. An endpoint copies out what it keeps (the Payload, the
// marks, the Cause) and never retains the pointer.
type Endpoint interface {
	Deliver(f *Frame)
}

// Config describes the physical characteristics of a network.
type Config struct {
	Name          string
	LinkRate      sim.Rate // per direction, per link
	FrameOverhead int      // extra wire bytes per frame (framing, IFG, CRC)
	HeaderBytes   int      // bytes needed in a switch before cut-through forwarding
	SwitchLatency sim.Time // forwarding decision latency per frame
	PropDelay     sim.Time // cable propagation per hop
	CutThrough    bool     // cut-through vs store-and-forward switching
}

// line tracks serialization on one unidirectional link.
type line struct {
	nextFree sim.Time
	busy     sim.Time // cumulative occupied time
	frames   int64
	bytes    int64

	// lastRef is the causal ref of the line's most recent serialization
	// span (RefNone when tracing is off). A frame that has to wait for the
	// line names this span as a cause — the serialization-slot edge — so
	// critical-path analysis follows the wire chain through a saturated
	// link instead of crediting the backlog to whoever queued the frame.
	lastRef trace.Ref

	// tailDrops and ecnMarks account congestion events at this line: frames
	// discarded because the backlog exceeded the queue cap, and frames that
	// crossed the ECN marking threshold. Always zero unless SetCongestion
	// armed the thresholds.
	tailDrops int64
	ecnMarks  int64

	// slow, when non-zero, scales the line's effective rate (0 < slow <= 1):
	// a degraded link serializes every frame at slow * LinkRate. Zero means
	// the line runs at full configured rate with bit-identical arithmetic to
	// a build without fault injection.
	slow float64

	// track is the line's trace track.
	track string

	// Arrival-order state of a shared line (switch->endpoint and trunk
	// lines; the sender-owned uplink is booked directly by Send): the
	// configured rate, the shard whose engine runs the line's drains, and
	// the frames headed for the line, in arrival order.
	rate    sim.Rate
	owner   int
	trunk   bool // a trunk line: another stage follows
	pending hopQueue
}

// stall pushes the line's next-free time out to `until`, without accounting
// any busy time or frames: the link is unavailable (down, or occupied by
// cross-traffic the simulation does not model frame-by-frame).
//
//simlint:noalloc
func (l *line) stall(until sim.Time) {
	if until > l.nextFree {
		l.nextFree = until
	}
}

// txTime returns the serialization time of `bytes` on this line at the
// configured rate, honoring a degraded-rate factor when one is set. The
// slow == 0 path is byte-for-byte the pre-fault-injection arithmetic.
//
//simlint:noalloc
func (l *line) txTime(rate sim.Rate, bytes int) sim.Time {
	if l.slow != 0 {
		rate = sim.Rate(float64(rate) * l.slow)
	}
	return rate.TxTime(bytes)
}

// reserve books the line for dur starting no earlier than earliest and
// returns the actual (start, end) of the transmission.
//
//simlint:noalloc
func (l *line) reserve(earliest sim.Time, dur sim.Time, bytes int) (start, end sim.Time) {
	start = earliest
	if l.nextFree > start {
		start = l.nextFree
	}
	end = start + dur
	l.nextFree = end
	l.busy += dur
	l.frames++
	l.bytes += int64(bytes)
	return start, end
}

// Port is one attachment point: a full-duplex link between an endpoint and
// the switch.
type Port struct {
	net *Network
	id  NodeID
	ep  Endpoint
	up  line // endpoint -> switch
	dn  line // switch -> endpoint

	// seq numbers this port's sends: with the port id, the key that orders
	// frames arriving at one line at the same timestamp.
	seq uint64
}

// ID returns the port's node ID.
func (p *Port) ID() NodeID { return p.id }

// Network is a set of ports around one switch.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	ports []*Port

	// DropFn, if non-nil, is consulted for every frame after the source
	// serializes it; returning true silently drops the frame. It is the
	// single frame-level attachment point for loss and corruption injection:
	// internal/faults compiles scenarios into one DropFn closure (which may
	// also mark frames Corrupt and return false), and tests of the reliable
	// transports above the fabric attach through the same hook.
	//
	// As with Endpoint.Deliver, the *Frame is valid only for the duration
	// of the call: it is the fabric's in-flight copy of the sent frame, and
	// a dropped frame's hop is recycled when DropFn returns.
	DropFn func(f *Frame) bool

	// cc holds the precomputed congestion thresholds; cc.on gates every
	// check so a network without congestion config runs the exact
	// pre-congestion arithmetic.
	cc ccState

	// Long-lived bound callbacks, one each, shared by every frame: the hop
	// pipeline schedules with Engine.AtArg(at, fn, hop-or-line) instead of
	// capturing closures, so the per-frame path allocates nothing.
	deliverFn, arriveFn, drainFn func(any)

	// topo is nil for the single-switch model; see topology.go.
	topo *topology

	// The shard layout (see sharding.go): engs[s] runs shard s's events,
	// shardOf maps every port to its shard, per holds each shard's
	// accounting and free[s] recycles shard s's hop nodes. A network that
	// Shard never split has one shard on its construction engine.
	engs    []*sim.Engine
	shardOf []int
	poster  Poster
	per     []shardNet
	free    [][]*hop
}

// shardNet is one shard's slice of the network accounting: frames sent,
// delivered and lost at the ports and lines the shard owns, plus
// Background frames terminated there. The Network accessors sum it across
// shards.
type shardNet struct {
	delivered, dropped                  int64
	tailDropped, ecnMarked, bgDelivered int64

	cFrames, cWireBytes, cDelivered, cDropped *metrics.Counter
	cTailDrops, cECNMarks                     *metrics.Counter
	cTrunkFrames, cTrunkBytes                 *metrics.Counter
	hSrcQueue, hEgQueue, hTrunkQueue          *metrics.Histogram
}

// newShardNet registers a shard's instruments on its engine's registry.
// Registries dedup by name, so every shard of a world reports under the
// same metric names.
func newShardNet(reg *metrics.Registry, trunks bool) shardNet {
	// Queueing delay distributions in picoseconds: 1 ns .. ~1 ms.
	qb := metrics.ExpBuckets(1e3, 4, 15)
	sn := shardNet{
		cFrames:    reg.Counter("fabric.frames_sent"),
		cWireBytes: reg.Counter("fabric.wire_bytes"),
		cDelivered: reg.Counter("fabric.frames_delivered"),
		cDropped:   reg.Counter("fabric.frames_dropped"),
		cTailDrops: reg.Counter("fabric.tail_drops"),
		cECNMarks:  reg.Counter("fabric.ecn_marks"),
		hSrcQueue:  reg.Histogram("fabric.src_queue_delay_ps", qb),
		hEgQueue:   reg.Histogram("fabric.egress_queue_delay_ps", qb),
	}
	if trunks {
		sn.cTrunkFrames = reg.Counter("fabric.trunk_frames")
		sn.cTrunkBytes = reg.Counter("fabric.trunk_wire_bytes")
		sn.hTrunkQueue = reg.Histogram("fabric.trunk_queue_delay_ps", qb)
	}
	return sn
}

// New creates a network with the given configuration.
func New(eng *sim.Engine, cfg Config) *Network {
	return NewWithTopology(eng, cfg, nil)
}

// NewWithTopology creates a multi-switch network (see topology.go): hosts
// attach to leaf switches in port order and cross-leaf frames traverse two
// trunk hops through a deterministically chosen spine. The spec is copied;
// a nil spec yields the plain single-switch network.
func NewWithTopology(eng *sim.Engine, cfg Config, spec *TopologySpec) *Network {
	if cfg.LinkRate <= 0 {
		panic(fmt.Sprintf("fabric %q: link rate %v", cfg.Name, cfg.LinkRate))
	}
	if cfg.HeaderBytes <= 0 {
		cfg.HeaderBytes = 64
	}
	n := &Network{eng: eng, cfg: cfg, engs: []*sim.Engine{eng}, free: make([][]*hop, 1)}
	if spec != nil {
		if err := spec.Validate(); err != nil {
			panic(err.Error())
		}
		n.topo = &topology{spec: *spec}
	}
	n.per = []shardNet{newShardNet(eng.Metrics(), n.topo != nil)}
	n.deliverFn = n.deliver
	n.arriveFn = n.arrive
	n.drainFn = n.drain
	return n
}

// Engine returns the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach connects an endpoint and returns its port.
func (n *Network) Attach(ep Endpoint) *Port {
	if len(n.engs) > 1 {
		panic(fmt.Sprintf("fabric %q: Attach after Shard", n.cfg.Name))
	}
	id := NodeID(len(n.ports))
	p := &Port{net: n, id: id, ep: ep}
	p.up.track = fmt.Sprintf("link.%s.up.%d", n.cfg.Name, id)
	p.dn.track = fmt.Sprintf("link.%s.dn.%d", n.cfg.Name, id)
	p.dn.rate = n.cfg.LinkRate
	n.ports = append(n.ports, p)
	n.shardOf = append(n.shardOf, 0)
	if n.topo != nil {
		n.ensureLeaf(n.topo.leafOf(id))
	}
	return p
}

// Ports returns the number of attached ports.
func (n *Network) Ports() int { return len(n.ports) }

// Port returns the attachment point with the given node ID.
func (n *Network) Port(id NodeID) *Port {
	if int(id) < 0 || int(id) >= len(n.ports) {
		panic(fmt.Sprintf("fabric %q: no port %d", n.cfg.Name, id))
	}
	return n.ports[id]
}

// sum totals one per-shard counter across shards.
func (n *Network) sum(field func(*shardNet) int64) int64 {
	var total int64
	for i := range n.per {
		total += field(&n.per[i])
	}
	return total
}

// Delivered returns the count of frames delivered to endpoints.
func (n *Network) Delivered() int64 {
	return n.sum(func(s *shardNet) int64 { return s.delivered })
}

// Dropped returns the total count of frames lost in the fabric for any
// reason: injected losses (DropFn returning true) plus congestion tail
// drops. Use FilterDropped and TailDropped to attribute the losses.
func (n *Network) Dropped() int64 {
	return n.FilterDropped() + n.TailDropped()
}

// FilterDropped returns the count of frames dropped by DropFn (injected
// loss).
func (n *Network) FilterDropped() int64 {
	return n.sum(func(s *shardNet) int64 { return s.dropped })
}

// TailDropped returns the count of frames discarded because a shared
// line's backlog exceeded the congestion queue cap (zero unless
// SetCongestion armed one).
func (n *Network) TailDropped() int64 {
	return n.sum(func(s *shardNet) int64 { return s.tailDropped })
}

// ECNMarked returns the count of frames that crossed the ECN marking
// threshold (zero unless SetCongestion armed one).
func (n *Network) ECNMarked() int64 {
	return n.sum(func(s *shardNet) int64 { return s.ecnMarked })
}

// BackgroundDelivered returns the count of Background (cross-traffic)
// frames that reached their destination and were discarded there.
func (n *Network) BackgroundDelivered() int64 {
	return n.sum(func(s *shardNet) int64 { return s.bgDelivered })
}

// TxTime returns the wire occupancy of a frame with the given NIC-visible
// size (fabric overhead included).
func (n *Network) TxTime(bytes int) sim.Time {
	return n.cfg.LinkRate.TxTime(bytes + n.cfg.FrameOverhead)
}

// Hop stages of a frame in flight, in path order.
const (
	stageTrunkUp = iota // arrival at the source leaf's uplink trunk line
	stageTrunkDn        // arrival at the destination leaf's downlink trunk line
	stageDstDn          // arrival at the destination port's switch->endpoint line
)

// hop is one frame in flight, from Send to delivery. It holds the frame by
// value: Send copies the caller's frame in, so the caller's Frame never
// escapes, and the endpoint reads the hop's copy. Hops come from per-shard
// free lists (they migrate: taken by the source shard, returned by the
// delivering shard) so the whole wire path stays allocation-free in steady
// state.
type hop struct {
	f     Frame
	at    sim.Time // arrival at the line the hop is headed for
	wire  int
	seq   uint64 // per-source-port send sequence: the deterministic tiebreak
	stage uint8
	spine uint16
}

// before is the arrival order: arrival time, then source port, then
// per-source sequence. It does not depend on how the world is sharded.
//
//simlint:noalloc
func (h *hop) before(o *hop) bool {
	if h.at != o.at {
		return h.at < o.at
	}
	if h.f.Src != o.f.Src {
		return h.f.Src < o.f.Src
	}
	return h.seq < o.seq
}

// hopQueue is a binary min-heap of the hops headed for one line, in
// arrival order.
type hopQueue []*hop

// push adds a hop.
//
//simlint:noalloc
func (q *hopQueue) push(h *hop) {
	*q = append(*q, h) //simlint:allow noalloc queue growth is amortized; the backing array is reused once the line drains
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the first hop in arrival order.
//
//simlint:noalloc
func (q *hopQueue) pop() *hop {
	s := *q
	h := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil
	s = s[:last]
	for i := 0; ; {
		first, l, r := i, 2*i+1, 2*i+2
		if l < len(s) && s[l].before(s[first]) {
			first = l
		}
		if r < len(s) && s[r].before(s[first]) {
			first = r
		}
		if first == i {
			break
		}
		s[i], s[first] = s[first], s[i]
		i = first
	}
	*q = s
	return h
}

// Send transmits a frame from this port. It books the sender's uplink and
// returns the time that link becomes free (the end of serialization at the
// source); every later hop is an arrival on the line it heads for, and the
// destination endpoint receives the frame from a scheduled event. Send
// must be called in engine context and never blocks.
//
// Send copies *frame into a pooled hop and keeps no reference to it, so
// a caller may pass the address of a frame literal (which then stays on
// the caller's stack) or reuse one frame for many sends.
//
//simlint:noalloc
func (p *Port) Send(frame *Frame) (txEnd sim.Time) {
	n := p.net
	if frame.Src != p.id {
		panic(fmt.Sprintf("fabric %q: frame src %d sent from port %d", n.cfg.Name, frame.Src, p.id))
	}
	if int(frame.Dst) < 0 || int(frame.Dst) >= len(n.ports) {
		panic(fmt.Sprintf("fabric %q: bad dst %d", n.cfg.Name, frame.Dst))
	}
	shard := n.shardOf[p.id]
	// The frame moves into the hop before anything else looks at it:
	// tracing and DropFn see (and may mark) the fabric's copy. f is a new
	// variable rather than a reassigned parameter so escape analysis, which
	// is flow-insensitive, still sees that frame does not escape.
	h := n.newHop(shard)
	h.f = *frame
	f := &h.f
	si := &n.per[shard]
	eng := n.engs[shard]
	now := eng.Now()
	wire := f.Bytes + n.cfg.FrameOverhead
	dur := p.up.txTime(n.cfg.LinkRate, wire)
	txStart, txEnd := p.up.reserve(now, dur, wire)

	si.cFrames.Inc()
	si.cWireBytes.Add(int64(wire))
	si.hSrcQueue.Observe(float64(txStart - now))
	if tr := eng.Trc(); tr.Enabled() {
		// Chain the frame's causal ref through the hop: the ingress span is
		// caused by whatever handed the frame over, and becomes the cause of
		// the next hop (trunks, then egress).
		// The attrs live in a fixed array so the optional edge appended
		// below never moves them to the heap.
		var buf [6]trace.Attr
		attrs := append(buf[:0], trace.Cause(f.Cause),
			trace.I64("wait_ps", int64(txStart-now)),
			trace.I64("bytes", int64(f.Bytes)), trace.I64("wire", int64(wire)),
			trace.I64("dst", int64(f.Dst)))
		if txStart > now && p.up.lastRef != trace.RefNone {
			attrs = append(attrs, trace.Cause(p.up.lastRef))
		}
		f.Cause = tr.CompleteR(p.up.track, "tx", int64(txStart), int64(txEnd), attrs...)
		p.up.lastRef = f.Cause
	}

	if n.DropFn != nil && n.DropFn(f) { //simlint:allow noalloc fault-injection hook; its allocations belong to the scenario, and the nil fast path is branch-only
		si.dropped++
		si.cDropped.Inc()
		n.freeHop(shard, h)
		return txEnd
	}

	h.wire = wire
	h.seq = p.seq
	p.seq++
	if n.topo != nil && n.topo.leafOf(f.Src) != n.topo.leafOf(f.Dst) {
		// Cross-leaf frames hop leaf -> spine -> leaf before the egress
		// port; same-leaf frames see exactly the single-switch path.
		h.stage = stageTrunkUp
		h.spine = uint16(ecmpSpine(f.Src, f.Dst, f.Flow, n.topo.spec.Spines))
	} else {
		h.stage = stageDstDn
	}
	// When does the (ingress) switch have enough of the frame to forward it?
	n.forward(shard, n.forwardReady(&p.up, n.cfg.LinkRate, txStart, txEnd, wire), h)
	return txEnd
}

// newHop takes a hop node from shard s's free list.
//
//simlint:noalloc
func (n *Network) newHop(s int) *hop {
	fl := n.free[s]
	if len(fl) == 0 {
		return &hop{} //simlint:allow noalloc free-list refill; steady state recycles every node
	}
	h := fl[len(fl)-1]
	n.free[s] = fl[:len(fl)-1]
	*h = hop{}
	return h
}

// freeHop returns a hop node to shard s's free list (the shard that just
// delivered or dropped it; nodes migrate between shards with their frames).
//
//simlint:noalloc
func (n *Network) freeHop(s int, h *hop) {
	h.f = Frame{}
	n.free[s] = append(n.free[s], h) //simlint:allow noalloc free-list growth is amortized; steady state recycles in place
}

// lineOf resolves the line a hop is headed for.
//
//simlint:noalloc
func (n *Network) lineOf(h *hop) *line {
	t := n.topo
	switch h.stage {
	case stageTrunkUp:
		return &t.trunks[t.leafOf(h.f.Src)*t.spec.Spines+int(h.spine)].up
	case stageTrunkDn:
		return &t.trunks[t.leafOf(h.f.Dst)*t.spec.Spines+int(h.spine)].dn
	default:
		return &n.ports[h.f.Dst].dn
	}
}

// forward sends a hop on to its next line, which it reaches at time at.
// On the shard that owns the line the hop joins the line's queue at once;
// across a shard boundary it travels as a pdes post. The post fires one
// picosecond early, so the hop is queued before any drain at `at` runs —
// the same as a local hop, which is queued when it leaves its previous
// line. at lies beyond the lookahead plus at least one picosecond of
// header serialization, so the early post still respects the barrier
// (see sharding.go).
//
//simlint:noalloc
func (n *Network) forward(from int, at sim.Time, h *hop) {
	h.at = at
	l := n.lineOf(h)
	if l.owner == from {
		n.enqueue(l, h)
		return
	}
	n.poster.Post(from, l.owner, at-sim.Picosecond, n.arriveFn, h) //simlint:allow noalloc cross-shard handoff; the runtime's outbox append is amortized and off the shard-local fast path
}

// arrive queues a hop that crossed a shard boundary, on the line owner's
// engine.
//
//simlint:noalloc
func (n *Network) arrive(v any) {
	h := v.(*hop)
	n.enqueue(n.lineOf(h), h)
}

// enqueue adds a hop to its line's queue and schedules a drain at its
// arrival time. Every hop schedules one; a drain finding no hop due does
// nothing.
//
//simlint:noalloc
func (n *Network) enqueue(l *line, h *hop) {
	l.pending.push(h)
	n.engs[l.owner].AtArg(h.at, n.drainFn, l)
}

// drain books the line for every hop that has arrived by now, in arrival
// order — (arrival time, source port, per-source sequence), an order that
// does not depend on how the world is sharded — then forwards each hop to
// its next stage or schedules its delivery.
//
//simlint:noalloc
func (n *Network) drain(v any) {
	l := v.(*line)
	eng := n.engs[l.owner]
	now := eng.Now()
	si := &n.per[l.owner]
	tr := eng.Trc()
	for len(l.pending) > 0 && l.pending[0].at <= now {
		h := l.pending.pop()
		f := &h.f
		if n.cc.on {
			// Bounded queues on the shared lines: over the cap the switch
			// discards the frame (real hardware has finite buffers); over
			// the marking threshold it sets the congestion-experienced bit
			// and forwards. The backlog is read at the arrival time.
			cap, mark := n.cc.linkCap, n.cc.linkMark
			if l.trunk {
				cap, mark = n.cc.trunkCap, n.cc.trunkMark
			}
			switch n.ccVerdict(l, now, cap, mark) {
			case ccDrop:
				l.tailDrops++
				si.tailDropped++
				si.cTailDrops.Inc()
				n.freeHop(l.owner, h)
				continue
			case ccMark:
				f.ECN = true
				l.ecnMarks++
				si.ecnMarked++
				si.cECNMarks.Inc()
			}
		}
		// Cut-through egress cannot finish before the tail of the frame has
		// arrived at the switch; serializing the full frame from its arrival
		// already guarantees that because ingress and egress rates are
		// equal. (A degraded egress line serializes slower than ingress,
		// which only strengthens the guarantee; a degraded ingress line can
		// let egress finish early — acceptable for the coarse-grained
		// degradation model.)
		dur := l.txTime(l.rate, h.wire)
		start, end := l.reserve(now, dur, h.wire)
		if tr.Enabled() {
			var buf [6]trace.Attr
			attrs := append(buf[:0], trace.Cause(f.Cause),
				trace.I64("wait_ps", int64(start-now)),
				trace.I64("bytes", int64(f.Bytes)), trace.I64("src", int64(f.Src)))
			if l.trunk {
				attrs = append(attrs, trace.I64("dst", int64(f.Dst)))
			}
			if start > now && l.lastRef != trace.RefNone {
				attrs = append(attrs, trace.Cause(l.lastRef))
			}
			f.Cause = tr.CompleteR(l.track, "tx", int64(start), int64(end), attrs...)
			l.lastRef = f.Cause
		}
		if l.trunk {
			si.cTrunkFrames.Inc()
			si.cTrunkBytes.Add(int64(h.wire))
			si.hTrunkQueue.Observe(float64(start - now))
			if h.stage == stageTrunkUp {
				h.stage = stageTrunkDn
			} else {
				h.stage = stageDstDn
			}
			n.forward(l.owner, n.forwardReady(l, l.rate, start, end, h.wire), h)
			continue
		}
		// Final hop: the destination port's dn line; deliver after the
		// egress serialization and the last cable. AtArg with the bound
		// deliverFn and the hop argument (a pointer, so converting it to
		// any allocates nothing) keeps the per-frame path clean; the event
		// node itself is recycled by the engine.
		si.hEgQueue.Observe(float64(start - now))
		eng.AtArg(end+n.cfg.PropDelay, n.deliverFn, h)
	}
}

// deliver hands a frame to its destination endpoint and recycles its hop;
// it is the single long-lived AtArg callback shared by every frame (see
// Network.deliverFn). It runs on the destination's shard and counts the
// delivery there.
//
//simlint:noalloc
func (n *Network) deliver(v any) {
	h := v.(*hop)
	f := &h.f
	s := n.shardOf[f.Dst]
	si := &n.per[s]
	if f.Background {
		// Cross-traffic terminates here: it consumed wire time on every
		// hop, but its tenant has no modeled endpoint to receive it.
		si.bgDelivered++
	} else {
		si.delivered++
		si.cDelivered.Inc()
		n.ports[f.Dst].ep.Deliver(f) //simlint:allow noalloc dynamic dispatch into the endpoint; its allocations belong to the NIC model, not the fabric
	}
	n.freeHop(s, h)
}

// PublishLinkMetrics freezes per-port link occupancy into gauges:
// fabric.port<N>.{up,dn}_bytes and fabric.port<N>.{up,dn}_util_bp, the
// latter in basis points of the elapsed virtual time. Call it once when a
// run finishes; calling again overwrites the gauges with fresher values.
func (n *Network) PublishLinkMetrics() {
	reg := n.eng.Metrics()
	elapsed := n.eng.Now()
	for _, p := range n.ports {
		upUtil, dnUtil := int64(0), int64(0)
		if elapsed > 0 {
			upUtil = int64(p.up.busy) * 10000 / int64(elapsed)
			dnUtil = int64(p.dn.busy) * 10000 / int64(elapsed)
		}
		// The gauge names are indexed by port id. Port ids are assigned
		// densely at attach time, so the name set is identical across runs
		// and snapshot determinism holds; this is a cold path, called once
		// per run, so the allocation does not violate the tracing budget.
		reg.Gauge(fmt.Sprintf("fabric.port%d.up_bytes", p.id)).Set(p.up.bytes) //simlint:allow tracekeys per-port gauge name; see comment above
		reg.Gauge(fmt.Sprintf("fabric.port%d.dn_bytes", p.id)).Set(p.dn.bytes) //simlint:allow tracekeys per-port gauge name; see comment above
		reg.Gauge(fmt.Sprintf("fabric.port%d.up_util_bp", p.id)).Set(upUtil)   //simlint:allow tracekeys per-port gauge name; see comment above
		reg.Gauge(fmt.Sprintf("fabric.port%d.dn_util_bp", p.id)).Set(dnUtil)   //simlint:allow tracekeys per-port gauge name; see comment above
	}
	if n.topo == nil {
		return
	}
	for _, t := range n.topo.trunks {
		upUtil, dnUtil := int64(0), int64(0)
		if elapsed > 0 {
			upUtil = int64(t.up.busy) * 10000 / int64(elapsed)
			dnUtil = int64(t.dn.busy) * 10000 / int64(elapsed)
		}
		// Like the per-port gauges: trunk indices are assigned densely at
		// attach time, so the name set is deterministic, and this is a
		// once-per-run cold path.
		reg.Gauge(fmt.Sprintf("fabric.trunk.l%ds%d.up_bytes", t.leaf, t.spine)).Set(t.up.bytes) //simlint:allow tracekeys per-trunk gauge name; see comment above
		reg.Gauge(fmt.Sprintf("fabric.trunk.l%ds%d.dn_bytes", t.leaf, t.spine)).Set(t.dn.bytes) //simlint:allow tracekeys per-trunk gauge name; see comment above
		reg.Gauge(fmt.Sprintf("fabric.trunk.l%ds%d.up_util_bp", t.leaf, t.spine)).Set(upUtil)   //simlint:allow tracekeys per-trunk gauge name; see comment above
		reg.Gauge(fmt.Sprintf("fabric.trunk.l%ds%d.dn_util_bp", t.leaf, t.spine)).Set(dnUtil)   //simlint:allow tracekeys per-trunk gauge name; see comment above
	}
}

// StallUp makes the endpoint->switch link unavailable until the given
// absolute virtual time: frames already serializing finish, every later
// frame queues behind the stall. Fault injectors use it for link-down
// windows on lossless fabrics (link-level flow control pauses the sender
// rather than losing frames) and the endpoint side of full link flaps.
func (p *Port) StallUp(until sim.Time) { p.up.stall(until) }

// StallDown makes the switch->endpoint link unavailable until the given
// absolute virtual time. Besides link flaps, fault injectors use repeated
// short down-stalls to model output-port congestion: cross-traffic from
// unmodeled senders occupying a share of the egress link.
func (p *Port) StallDown(until sim.Time) { p.dn.stall(until) }

// SetSlowdown degrades (or, with factor 0 or 1, restores) the port's link
// rate in both directions: every frame serializes at factor * LinkRate.
// Factor must be in (0, 1] or 0 to clear.
func (p *Port) SetSlowdown(factor float64) {
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("fabric %q: slowdown factor %v", p.net.cfg.Name, factor))
	}
	if factor == 1 {
		factor = 0 // full rate: restore the exact baseline arithmetic
	}
	p.up.slow = factor
	p.dn.slow = factor
}

// UpLinkStats returns frames and bytes sent from the endpoint into the
// switch through this port.
func (p *Port) UpLinkStats() (frames, bytes int64) { return p.up.frames, p.up.bytes }

// DownLinkStats returns frames and bytes sent from the switch to the
// endpoint through this port.
func (p *Port) DownLinkStats() (frames, bytes int64) { return p.dn.frames, p.dn.bytes }

// UpBusy returns cumulative serialization time on the endpoint->switch link.
func (p *Port) UpBusy() sim.Time { return p.up.busy }

// DownBusy returns cumulative serialization time on the switch->endpoint link.
func (p *Port) DownBusy() sim.Time { return p.dn.busy }
