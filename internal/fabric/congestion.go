package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// CongestionConfig bounds the fabric's shared egress queues. The default
// (zero) configuration is the historical model: infinite buffers, frames
// queue forever and nothing is ever marked or dropped. Arming either
// threshold makes the switch behave like real hardware with finite buffers
// and ECN support:
//
//   - A frame that would join a shared line whose backlog already exceeds
//     QueueCapBytes is tail-dropped (counted per line and per network;
//     reliable transports above the fabric see the loss and recover).
//   - A frame that joins a backlog beyond ECNMarkBytes is forwarded with
//     Frame.ECN set — the congestion-experienced mark that ECN-capable
//     endpoints echo back so the sender can slow down before the queue
//     overflows.
//
// Thresholds apply to the shared lines only: switch->endpoint egress ports
// and leaf–spine trunks. The endpoint->switch uplink is excluded — the NIC
// owns that queue and simply serializes later (the sender blocks on its own
// wire; it cannot overflow the switch).
//
// Backlogs are compared in time at the line's configured rate (bytes are
// converted once, in SetCongestion), so a drain costs one subtraction and
// two compares per frame and is branch-free when congestion is off.
type CongestionConfig struct {
	// QueueCapBytes is the maximum standing backlog, in wire bytes, a
	// shared line absorbs before tail-dropping. Zero disables dropping.
	QueueCapBytes int

	// ECNMarkBytes is the backlog, in wire bytes, beyond which forwarded
	// frames are ECN-marked. Zero disables marking. When both thresholds
	// are armed, ECNMarkBytes must be below QueueCapBytes (marks must be
	// able to happen before drops, or the feedback loop never engages).
	ECNMarkBytes int
}

// Enabled reports whether the configuration arms any congestion behavior.
func (cc CongestionConfig) Enabled() bool {
	return cc.QueueCapBytes > 0 || cc.ECNMarkBytes > 0
}

// ccState is the precomputed form of CongestionConfig: byte thresholds
// converted to backlog durations at the relevant line rates, so drain-path
// checks are pure sim.Time arithmetic.
type ccState struct {
	on        bool
	linkCap   sim.Time // QueueCapBytes at LinkRate; 0 = unbounded
	linkMark  sim.Time // ECNMarkBytes at LinkRate; 0 = no marking
	trunkCap  sim.Time // same thresholds at the trunk rate
	trunkMark sim.Time
	cfg       CongestionConfig
}

// ccVerdict classifies one frame's encounter with a shared line.
type ccVerdictKind int

const (
	ccPass ccVerdictKind = iota // backlog under every threshold
	ccMark                      // forward, but set the ECN bit
	ccDrop                      // backlog over the cap: discard
)

// SetCongestion arms bounded queues and ECN marking on every shared line.
// Call it during setup, before any traffic: thresholds are global and
// constant for the run (per-run configuration, like the topology), which is
// what keeps drains deterministic on any number of shards — every shard
// evaluates the same thresholds against line state only its owner mutates.
func (n *Network) SetCongestion(cc CongestionConfig) {
	if cc.QueueCapBytes < 0 || cc.ECNMarkBytes < 0 {
		panic(fmt.Sprintf("fabric %q: negative congestion threshold %+v", n.cfg.Name, cc))
	}
	if cc.QueueCapBytes > 0 && cc.ECNMarkBytes >= cc.QueueCapBytes {
		panic(fmt.Sprintf("fabric %q: ECN mark threshold %d must be below queue cap %d",
			n.cfg.Name, cc.ECNMarkBytes, cc.QueueCapBytes))
	}
	if !cc.Enabled() {
		n.cc = ccState{}
		return
	}
	st := ccState{on: true, cfg: cc}
	if cc.QueueCapBytes > 0 {
		st.linkCap = n.cfg.LinkRate.TxTime(cc.QueueCapBytes)
	}
	if cc.ECNMarkBytes > 0 {
		st.linkMark = n.cfg.LinkRate.TxTime(cc.ECNMarkBytes)
	}
	// Trunk thresholds hold the same byte depths, converted at the trunk
	// rate (an oversubscribed trunk at the same buffer size drains slower,
	// so the same bytes represent a longer standing delay).
	if n.topo != nil {
		tr := n.trunkRate()
		if cc.QueueCapBytes > 0 {
			st.trunkCap = tr.TxTime(cc.QueueCapBytes)
		}
		if cc.ECNMarkBytes > 0 {
			st.trunkMark = tr.TxTime(cc.ECNMarkBytes)
		}
	}
	n.cc = st
}

// Congestion returns the armed configuration (zero when off).
func (n *Network) Congestion() CongestionConfig { return n.cc.cfg }

// ccVerdict compares the line's standing backlog at `ready` — how far
// beyond the frame's arrival the line is already booked — against the cap
// and mark thresholds. Only called when congestion is armed.
//
//simlint:noalloc
func (n *Network) ccVerdict(l *line, ready sim.Time, cap, mark sim.Time) ccVerdictKind {
	backlog := l.nextFree - ready
	if backlog <= 0 {
		return ccPass
	}
	if cap > 0 && backlog > cap {
		return ccDrop
	}
	if mark > 0 && backlog > mark {
		return ccMark
	}
	return ccPass
}

// DownTailDrops returns the count of frames tail-dropped at this port's
// switch->endpoint line (the incast hot spot).
func (p *Port) DownTailDrops() int64 { return p.dn.tailDrops }

// DownECNMarks returns the count of frames ECN-marked at this port's
// switch->endpoint line.
func (p *Port) DownECNMarks() int64 { return p.dn.ecnMarks }

// TailDrops returns the trunk's tail drops in each direction.
func (t *Trunk) TailDrops() (up, dn int64) { return t.up.tailDrops, t.dn.tailDrops }

// ECNMarks returns the trunk's ECN marks in each direction.
func (t *Trunk) ECNMarks() (up, dn int64) { return t.up.ecnMarks, t.dn.ecnMarks }

// UpBacklog returns how far beyond `now` this port's endpoint->switch line
// is already booked — the sender-side standing queue. Senders that throttle
// on local backpressure (the MX model) poll it to decide whether to pause
// before serializing more. Zero when the line is idle or free by `now`.
//
//simlint:noalloc
func (p *Port) UpBacklog(now sim.Time) sim.Time {
	if b := p.up.nextFree - now; b > 0 {
		return b
	}
	return 0
}
