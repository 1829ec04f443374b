// Package causal reconstructs the event DAG from a trace whose events carry
// causal.self / causal.cause attributes (see internal/trace), extracts the
// critical path of an operation, and attributes the operation's elapsed
// virtual time to architectural buckets: host software, NIC engines, wire
// serialization, switch/trunk queueing and protocol stalls.
//
// The attribution is exact by construction: the critical path is tiled over
// the operation's own span, every picosecond of the window lands in exactly
// one bucket, and the buckets therefore sum to the measured operation time.
// A test pins this invariant.
//
// Lossy traces are refused. When the trace ring buffer overflowed and any
// dropped event carried a causal attribute, the DAG has holes that would
// silently misattribute time; Build returns ErrLossyTrace instead.
package causal

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Bucket classifies critical-path time architecturally.
type Bucket int

// The attribution buckets. Host covers MPI library time, matching, bounce
// copies, post overhead and completion polling on either end; NIC covers
// protocol/DMA engine occupancy and waits for engine slots; Wire is link and
// trunk serialization; Switch is the queueing/arbitration wait in front of a
// wire hop; Stall is protocol-level dead time (TCP retransmission timeouts,
// fast retransmits, injected engine stalls).
const (
	Host Bucket = iota
	NIC
	Wire
	Switch
	Stall
	NumBuckets
)

// String returns the bucket's report column name.
func (b Bucket) String() string {
	switch b {
	case Host:
		return "host"
	case NIC:
		return "nic"
	case Wire:
		return "wire"
	case Switch:
		return "switch"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("bucket(%d)", int(b))
}

// ErrLossyTrace reports that the trace dropped events carrying causal edges,
// leaving holes in the DAG.
var ErrLossyTrace = errors.New("causal: trace dropped events carrying causal edges; the DAG is incomplete")

// Node is one event in the causal DAG. Its incoming edges are the Cause
// attrs of Ev, read when a walk reaches the node.
type Node struct {
	Ref trace.Ref
	Ev  *trace.Event
}

// Start returns the node's start time in picoseconds.
func (n *Node) Start() int64 { return n.Ev.Ts }

// End returns the node's end time (start for instants).
func (n *Node) End() int64 { return n.Ev.End() }

// DAG indexes a trace's causally-annotated events by node ref. Refs are
// dense small integers (Tracer.NewRef counts up from 1), so the index is a
// slice rather than a map: index[r] is one more than node r's position in
// nodes, and zero where no event carries ref r.
type DAG struct {
	nodes []Node // in record order
	index []int32
}

// maxSparseRefs is how far a ref may reach past four times the trace's
// length. A tracer hands out about one ref per recorded event, so only a
// hand-edited or heavily filtered trace comes near the bound; it keeps the
// index from growing with a ref value instead of with the trace.
const maxSparseRefs = 1 << 20

// Build indexes every event carrying a causal self ref. It refuses traces
// whose drop statistics report lost causal edges (wrap-around would leave
// the DAG silently incomplete); use a larger trace buffer instead.
func Build(log *trace.Log, drops trace.DropStats) (*DAG, error) {
	if drops.CausalEdges > 0 {
		return nil, fmt.Errorf("%w (%d causal events dropped of %d total)", ErrLossyTrace, drops.CausalEdges, drops.Total())
	}
	limit := trace.Ref(4*log.Len() + maxSparseRefs)
	var top trace.Ref
	count := 0
	for i := 0; i < log.Len(); i++ {
		self := log.At(i).SelfRef()
		if self < 0 || self > limit {
			return nil, fmt.Errorf("causal: node ref %d out of range for a %d-event trace", self, log.Len())
		}
		if self != trace.RefNone {
			count++
			top = max(top, self)
		}
	}
	d := &DAG{nodes: make([]Node, 0, count), index: make([]int32, top+1)}
	for i := 0; i < log.Len(); i++ {
		ev := log.At(i)
		self := ev.SelfRef()
		if self == trace.RefNone {
			continue
		}
		if d.index[self] != 0 {
			return nil, fmt.Errorf("causal: duplicate node ref %d", self)
		}
		d.nodes = append(d.nodes, Node{Ref: self, Ev: ev})
		d.index[self] = int32(len(d.nodes))
	}
	return d, nil
}

// Len returns the number of DAG nodes.
func (d *DAG) Len() int { return len(d.nodes) }

// Node resolves a ref.
func (d *DAG) Node(r trace.Ref) (*Node, bool) {
	if r <= trace.RefNone || int64(r) >= int64(len(d.index)) || d.index[r] == 0 {
		return nil, false
	}
	return &d.nodes[d.index[r]-1], true
}

// Terminal returns the node that completed last (ties toward the lowest
// ref, so the choice is deterministic), or RefNone for an empty DAG. It is
// the natural default operation for blame: in a benchmark trace the
// last-completing causal node is the final MPI call of the run.
func (d *DAG) Terminal() trace.Ref {
	var best *Node
	for i := range d.nodes {
		n := &d.nodes[i]
		if best == nil || n.End() > best.End() || (n.End() == best.End() && n.Ref < best.Ref) {
			best = n
		}
	}
	if best == nil {
		return trace.RefNone
	}
	return best.Ref
}

// CriticalPath walks back from end following, at each node, the
// latest-completing cause (ties broken toward the lowest ref, so the walk is
// deterministic), and returns the chain in chronological order: the root
// event first, the end node last.
func (d *DAG) CriticalPath(end trace.Ref) ([]*Node, error) {
	cur, ok := d.Node(end)
	if !ok {
		return nil, fmt.Errorf("causal: no node with ref %d", end)
	}
	var rev []*Node
	seen := make(map[trace.Ref]bool)
	for cur != nil {
		if seen[cur.Ref] {
			return nil, fmt.Errorf("causal: cycle through ref %d", cur.Ref)
		}
		seen[cur.Ref] = true
		rev = append(rev, cur)
		cur = d.latestCause(cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// latestCause resolves the cause of n that completed last (ties -> lowest
// ref). Cause refs with no recorded event (allocated before the trace buffer
// was installed) are skipped.
func (d *DAG) latestCause(n *Node) *Node {
	var best *Node
	var buf [4]trace.Ref
	for _, r := range n.Ev.CauseRefs(buf[:0]) {
		c, ok := d.Node(r)
		if !ok {
			continue
		}
		if best == nil || c.End() > best.End() || (c.End() == best.End() && c.Ref < best.Ref) {
			best = c
		}
	}
	return best
}

// Classify maps a DAG node to its attribution bucket by event name and
// track. The names are the instrumentation vocabulary of the NIC models
// (internal/iwarp, internal/ib, internal/mx), the fabric and the MPI layer;
// anything unrecognized is host software.
func Classify(ev *trace.Event) Bucket {
	switch ev.Name {
	case "tx-seg", "rx-seg", "tx-pkt", "rx-pkt", "rx-ack", "wqe-fetch", "placed", "tx-done":
		return NIC
	case "engine-stall", "tcp.rto", "tcp.fast-retx":
		return Stall
	case "tx":
		if strings.HasPrefix(ev.Who, "link.") || strings.HasPrefix(ev.Who, "trunk.") {
			return Wire
		}
	}
	return Host
}

// gapBucket classifies the idle time on the critical path immediately before
// node n: waiting in front of a wire hop is switch/port queueing; waiting
// for a NIC engine slot is NIC serialization; waiting before host or stall
// events inherits their bucket.
func gapBucket(n *Node) Bucket {
	if b := Classify(n.Ev); b != Wire {
		return b
	}
	return Switch
}

// Report is the time attribution of one operation window.
type Report struct {
	// Op is the operation's terminal node; its own span is the window.
	Op *Node
	// Start and End bound the window in picoseconds.
	Start, End int64
	// Buckets holds the attributed picoseconds; they sum to End-Start.
	Buckets [NumBuckets]int64
	// Path is the critical path used, chronological, ending at Op.
	Path []*Node
}

// Total returns the window length in picoseconds.
func (r *Report) Total() int64 { return r.End - r.Start }

// Blame extracts the critical path ending at op and tiles it over the op
// node's own span. Every picosecond of the window is attributed exactly
// once: path segments are clamped to the window and to the advancing
// cursor, gaps inherit the bucket of the event they precede, and the tail
// after the last upstream event is host time (completion reaping, final
// copies). The buckets therefore sum to the operation's measured duration.
func (d *DAG) Blame(op trace.Ref) (*Report, error) {
	path, err := d.CriticalPath(op)
	if err != nil {
		return nil, err
	}
	opNode := path[len(path)-1]
	rep := &Report{Op: opNode, Start: opNode.Start(), End: opNode.End(), Path: path}
	tileWindow(rep, path[:len(path)-1])
	return rep, nil
}

// tileWindow tiles the upstream critical path over the report window,
// attributing every picosecond of [Start, End) to exactly one bucket. It is
// Blame's inner loop, split out so the per-operation attribution cost is
// pure arithmetic over the prebuilt path: attribution of arbitrarily long
// paths allocates nothing beyond the Report that Blame already built.
//
//simlint:noalloc
func tileWindow(rep *Report, path []*Node) {
	t := rep.Start
	for _, n := range path {
		if t >= rep.End {
			break
		}
		if n.End() <= t {
			continue // entirely before the cursor (or the window)
		}
		segStart, segEnd := n.Start(), n.End()
		if segStart < t {
			segStart = t
		}
		if segEnd > rep.End {
			segEnd = rep.End
		}
		if segStart > t { // idle gap on the path before this event
			gapEnd := segStart
			if gapEnd > rep.End {
				gapEnd = rep.End
			}
			rep.Buckets[gapBucket(n)] += gapEnd - t
			t = gapEnd
		}
		if segEnd > t {
			rep.Buckets[Classify(n.Ev)] += segEnd - t
			t = segEnd
		}
	}
	if t < rep.End {
		rep.Buckets[Host] += rep.End - t
	}
}
