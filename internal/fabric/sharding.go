package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the fabric's shard boundary for the conservative parallel
// DES runtime (internal/pdes). Forwarding already runs hop by hop as
// arrival events on the line each hop heads for (see Port.Send), so
// splitting a world across engines only assigns every shared line to the
// shard that owns it:
//
//	Send (src shard) -> trunk.up drain (src leaf's shard)
//	                 -> trunk.dn drain (dst leaf's shard)   <- the crossing
//	                 -> dst.dn drain + delivery (dst's shard)
//
// The sender-owned uplink is booked in Send on the sender's shard; no
// other shard ever touches it. A hop whose next line lives on another
// shard travels as a pdes post, which queues it on the line one picosecond
// before it arrives — just as a local hop is queued before it arrives.
// Drains serve each line's queue in (arrival time, source port, per-source
// frame sequence) order — never engine-event order, which differs between
// shard counts — which is what makes output byte-identical on one engine
// and on N shards.
//
// Lookahead: each hop above arrives at forwardReady(...) >= reservation
// start + header-tx + PropDelay + SwitchLatency, and the reservation starts
// no earlier than the event that requested it. Header serialization takes
// at least a picosecond, so even the early post spans at least
// Config.Lookahead() = PropDelay + SwitchLatency of virtual time, which is
// the bound the barrier protocol relies on.

// Poster delivers a cross-shard event. internal/pdes implements it; the
// interface lives here so the fabric does not import the runtime.
type Poster interface {
	// Post schedules fn(arg) at virtual time at on shard dst's engine,
	// called from shard src's event context. Delivery order at dst is the
	// deterministic (at, src, per-src-seq) merge order.
	Post(src, dst int, at sim.Time, fn func(any), arg any)
}

// Lookahead returns the conservative lower bound on the virtual time a
// frame spends between leaving one switch line and arriving at the next:
// strictly less than header-serialization + PropDelay + SwitchLatency on
// every hop, for both cut-through and store-and-forward switching.
func (c Config) Lookahead() sim.Time { return c.PropDelay + c.SwitchLatency }

// Shard splits the network across two or more shard engines. engs[0] must
// be the engine the network was built on; shardOf maps every attached port
// to its owning shard; poster carries hops across shard boundaries. Call it
// after every endpoint has attached and before the world runs. In a
// topology, all hosts of a leaf must live in one shard (the trunk lines
// are owned by their leaf's shard).
func (n *Network) Shard(engs []*sim.Engine, shardOf []int, poster Poster) {
	if len(n.engs) > 1 {
		panic(fmt.Sprintf("fabric %q: already sharded", n.cfg.Name))
	}
	if len(engs) < 2 || engs[0] != n.eng {
		panic(fmt.Sprintf("fabric %q: sharding needs the construction engine as shard 0 of at least 2", n.cfg.Name))
	}
	if len(shardOf) != len(n.ports) {
		panic(fmt.Sprintf("fabric %q: %d shard assignments for %d ports", n.cfg.Name, len(shardOf), len(n.ports)))
	}
	if n.cfg.Lookahead() <= 0 {
		panic(fmt.Sprintf("fabric %q: zero lookahead (PropDelay %v + SwitchLatency %v); sharding needs a positive bound", n.cfg.Name, n.cfg.PropDelay, n.cfg.SwitchLatency))
	}
	if poster == nil {
		panic(fmt.Sprintf("fabric %q: %d shards need a cross-shard poster", n.cfg.Name, len(engs)))
	}
	for i, s := range shardOf {
		if s < 0 || s >= len(engs) {
			panic(fmt.Sprintf("fabric %q: port %d assigned to shard %d of %d", n.cfg.Name, i, s, len(engs)))
		}
		n.ports[i].dn.owner = s
	}
	if n.topo != nil {
		hpl := n.topo.spec.HostsPerLeaf
		for _, t := range n.topo.trunks {
			first := t.leaf * hpl
			if first >= len(shardOf) {
				continue // leaf materialized past the last attached host
			}
			owner := shardOf[first]
			for id := first; id < (t.leaf+1)*hpl && id < len(shardOf); id++ {
				if shardOf[id] != owner {
					panic(fmt.Sprintf("fabric %q: leaf %d split across shards %d and %d", n.cfg.Name, t.leaf, owner, shardOf[id]))
				}
			}
			t.up.owner = owner
			t.dn.owner = owner
		}
	}
	n.engs = engs
	n.shardOf = append([]int(nil), shardOf...)
	n.poster = poster
	n.per = make([]shardNet, len(engs))
	for s := range n.per {
		n.per[s] = newShardNet(engs[s].Metrics(), n.topo != nil)
	}
	n.free = make([][]*hop, len(engs))
}

// ShardCount returns the number of shard engines (1 unless Shard split
// the network).
func (n *Network) ShardCount() int { return len(n.engs) }

// TrunkShard returns the shard owning a trunk's lines.
func (n *Network) TrunkShard(t *Trunk) int { return t.up.owner }

// ShardOf returns the shard owning a port.
func (n *Network) ShardOf(id NodeID) int { return n.shardOf[id] }

// ShardEngine returns shard s's engine.
func (n *Network) ShardEngine(s int) *sim.Engine { return n.engs[s] }

// PortEngine returns the engine that executes events of the given port's
// endpoint. Fault injectors use it to read "now" for the frame they are
// filtering and to schedule window events on the owning shard.
func (n *Network) PortEngine(id NodeID) *sim.Engine { return n.engs[n.shardOf[id]] }
