package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the multi-switch topology layer: two-level leaf–spine (Clos)
// fabrics built from the same switch/port/link primitives as the
// single-switch model. Hosts attach to leaf switches in port order
// (HostsPerLeaf consecutive ports per leaf); every leaf connects to every
// spine through one full-duplex trunk. Frames between hosts on the same
// leaf see exactly the single-switch arithmetic; frames crossing leaves
// additionally traverse two trunk hops (leaf->spine, spine->leaf), each
// with its own serialization, propagation and forwarding latency, and the
// spine is chosen by a deterministic ECMP-style hash of (src, dst, flow).
//
// Oversubscription falls out of the trunk count: with HostsPerLeaf hosts
// feeding Spines trunks of the same line rate, the leaf's uplink capacity
// is Spines/HostsPerLeaf of its host-facing capacity (Spines ==
// HostsPerLeaf is the full-bisection 1:1 fat-tree; fewer spines
// oversubscribe the fabric and cross-leaf traffic contends on the trunks).

// TopologySpec describes a two-level leaf–spine fabric. The zero value is
// not valid; use FatTree or LeafSpine, or fill the fields and Validate.
type TopologySpec struct {
	// HostsPerLeaf is the number of host ports per leaf switch. Host port
	// i attaches to leaf i/HostsPerLeaf.
	HostsPerLeaf int
	// Spines is the number of spine switches; every leaf has one trunk to
	// each spine.
	Spines int
	// TrunkRate is the line rate of each trunk; zero means the endpoint
	// link rate (the paper-era fixed-speed switches).
	TrunkRate sim.Rate
}

// FatTree returns the full-bisection (1:1) two-level Clos: as many spines
// as hosts per leaf, so the uplink capacity of every leaf matches its
// host-facing capacity.
func FatTree(hostsPerLeaf int) *TopologySpec {
	return &TopologySpec{HostsPerLeaf: hostsPerLeaf, Spines: hostsPerLeaf}
}

// LeafSpine returns a leaf–spine fabric oversubscribed oversub:1 at the
// leaf uplinks: hostsPerLeaf hosts share hostsPerLeaf/oversub trunks.
// oversub must divide hostsPerLeaf; oversub 1 is FatTree.
func LeafSpine(hostsPerLeaf, oversub int) *TopologySpec {
	if oversub < 1 || hostsPerLeaf%oversub != 0 {
		panic(fmt.Sprintf("fabric: oversubscription %d:1 does not divide %d hosts per leaf", oversub, hostsPerLeaf))
	}
	return &TopologySpec{HostsPerLeaf: hostsPerLeaf, Spines: hostsPerLeaf / oversub}
}

// Validate checks the spec's invariants.
func (s *TopologySpec) Validate() error {
	if s.HostsPerLeaf <= 0 {
		return fmt.Errorf("fabric: topology needs hosts per leaf, got %d", s.HostsPerLeaf)
	}
	if s.Spines <= 0 {
		return fmt.Errorf("fabric: topology needs spines, got %d", s.Spines)
	}
	if s.TrunkRate < 0 {
		return fmt.Errorf("fabric: negative trunk rate %v", s.TrunkRate)
	}
	return nil
}

// Oversubscription returns the leaf uplink oversubscription ratio
// (host-facing capacity over trunk capacity); 1 is full bisection.
func (s *TopologySpec) Oversubscription() float64 {
	return float64(s.HostsPerLeaf) / float64(s.Spines)
}

// Label renders the ratio in the conventional "2:1" form.
func (s *TopologySpec) Label() string {
	return fmt.Sprintf("%g:1", s.Oversubscription())
}

// Trunk is one full-duplex leaf<->spine link. Like Port it exposes the
// stall/slowdown hooks fault injectors drive and per-direction stats.
type Trunk struct {
	net         *Network
	leaf, spine int
	up          line // leaf -> spine
	dn          line // spine -> leaf
}

// Leaf returns the trunk's leaf-switch index.
func (t *Trunk) Leaf() int { return t.leaf }

// Spine returns the trunk's spine-switch index.
func (t *Trunk) Spine() int { return t.spine }

// StallUp makes the leaf->spine direction unavailable until the given
// absolute virtual time.
func (t *Trunk) StallUp(until sim.Time) { t.up.stall(until) }

// StallDown makes the spine->leaf direction unavailable until the given
// absolute virtual time.
func (t *Trunk) StallDown(until sim.Time) { t.dn.stall(until) }

// SetSlowdown degrades (or, with factor 0 or 1, restores) the trunk's line
// rate in both directions, mirroring Port.SetSlowdown.
func (t *Trunk) SetSlowdown(factor float64) {
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("fabric %q: slowdown factor %v", t.net.cfg.Name, factor))
	}
	if factor == 1 {
		factor = 0 // full rate: restore the exact baseline arithmetic
	}
	t.up.slow = factor
	t.dn.slow = factor
}

// UpStats returns frames and bytes carried leaf->spine.
func (t *Trunk) UpStats() (frames, bytes int64) { return t.up.frames, t.up.bytes }

// DownStats returns frames and bytes carried spine->leaf.
func (t *Trunk) DownStats() (frames, bytes int64) { return t.dn.frames, t.dn.bytes }

// UpBusy returns cumulative serialization time leaf->spine.
func (t *Trunk) UpBusy() sim.Time { return t.up.busy }

// DownBusy returns cumulative serialization time spine->leaf.
func (t *Trunk) DownBusy() sim.Time { return t.dn.busy }

// topology is the compiled spec plus the materialized trunks. Trunks grow
// as ports attach (leaf l exists once port l*HostsPerLeaf does), indexed
// leaf*Spines+spine.
type topology struct {
	spec   TopologySpec
	leaves int
	trunks []*Trunk
}

func (t *topology) leafOf(id NodeID) int { return int(id) / t.spec.HostsPerLeaf }

// trunkRate returns the trunk line rate (spec override or endpoint rate).
func (n *Network) trunkRate() sim.Rate {
	if n.topo.spec.TrunkRate != 0 {
		return n.topo.spec.TrunkRate
	}
	return n.cfg.LinkRate
}

// ensureLeaf materializes leaf switches (and their trunks) up to and
// including the given leaf index. Called from Attach, so trunk creation
// order — and with it the trace-track name set — is as deterministic as
// port attachment order.
func (n *Network) ensureLeaf(leaf int) {
	t := n.topo
	for ; t.leaves <= leaf; t.leaves++ {
		for s := 0; s < t.spec.Spines; s++ {
			tk := &Trunk{net: n, leaf: t.leaves, spine: s}
			for _, l := range []*line{&tk.up, &tk.dn} {
				l.rate = n.trunkRate()
				l.trunk = true
			}
			tk.up.track = fmt.Sprintf("trunk.%s.l%d.s%d.up", n.cfg.Name, t.leaves, s)
			tk.dn.track = fmt.Sprintf("trunk.%s.l%d.s%d.dn", n.cfg.Name, t.leaves, s)
			t.trunks = append(t.trunks, tk)
		}
	}
}

// Topology returns a copy of the network's topology spec, or nil for the
// single-switch model.
func (n *Network) Topology() *TopologySpec {
	if n.topo == nil {
		return nil
	}
	spec := n.topo.spec
	return &spec
}

// Leaves returns the number of materialized leaf switches (0 for the
// single-switch model).
func (n *Network) Leaves() int {
	if n.topo == nil {
		return 0
	}
	return n.topo.leaves
}

// Spines returns the number of spine switches (0 for the single-switch
// model).
func (n *Network) Spines() int {
	if n.topo == nil {
		return 0
	}
	return n.topo.spec.Spines
}

// LeafOf returns the leaf switch a port attaches to (0 for the
// single-switch model).
func (n *Network) LeafOf(id NodeID) int {
	if n.topo == nil {
		return 0
	}
	return n.topo.leafOf(id)
}

// Trunk returns the leaf<->spine link.
func (n *Network) Trunk(leaf, spine int) *Trunk {
	t := n.topo
	if t == nil {
		panic(fmt.Sprintf("fabric %q: single-switch network has no trunks", n.cfg.Name))
	}
	if leaf < 0 || leaf >= t.leaves || spine < 0 || spine >= t.spec.Spines {
		panic(fmt.Sprintf("fabric %q: no trunk leaf %d spine %d (%d leaves, %d spines)", n.cfg.Name, leaf, spine, t.leaves, t.spec.Spines))
	}
	return t.trunks[leaf*t.spec.Spines+spine]
}

// MaxTrunkUtilBP returns the peak per-direction trunk utilization so far,
// in basis points of the elapsed virtual time — the figure families use it
// as the direct contention witness (it grows with oversubscription).
func (n *Network) MaxTrunkUtilBP() int64 {
	if n.topo == nil {
		return 0
	}
	elapsed := n.eng.Now()
	if elapsed <= 0 {
		return 0
	}
	var peak int64
	for _, t := range n.topo.trunks {
		for _, busy := range []sim.Time{t.up.busy, t.dn.busy} {
			if bp := int64(busy) * 10000 / int64(elapsed); bp > peak {
				peak = bp
			}
		}
	}
	return peak
}

// ecmpSpine picks the spine for a (src, dst, flow) triple: a SplitMix64-
// style finalizer over the packed triple, reduced mod the spine count. The
// choice is a pure function of its inputs — no RNG, no state — so routing
// is bit-identical across runs and across -j workers, while distinct flows
// between the same host pair still spread over the spines (the NIC models
// stamp Frame.Flow with the sending QP number).
//
//simlint:noalloc
func ecmpSpine(src, dst NodeID, flow, spines int) int {
	x := uint64(uint32(src))<<40 ^ uint64(uint32(dst))<<20 ^ uint64(uint32(flow))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(spines))
}

// forwardReady returns when the next switch on the path can begin egress,
// given the (start, end) of serialization on the incoming line: cut-through
// forwards once the header has arrived, store-and-forward waits for the
// tail; both then pay propagation and the forwarding decision.
//
//simlint:noalloc
func (n *Network) forwardReady(l *line, rate sim.Rate, start, end sim.Time, wire int) sim.Time {
	if n.cfg.CutThrough {
		hdr := l.txTime(rate, min(wire, n.cfg.HeaderBytes))
		return start + hdr + n.cfg.PropDelay + n.cfg.SwitchLatency
	}
	return end + n.cfg.PropDelay + n.cfg.SwitchLatency
}
