// Package cluster assembles the paper's testbed: four dual-Xeon Dell
// PowerEdge 2850 nodes, each with exactly one NIC on its PCIe slot,
// connected through a single switch. One Testbed models one experiment's
// network: iWARP (NetEffect NE010 + Fujitsu XG700 10GigE switch),
// InfiniBand (Mellanox MHEA28-XT + MTS2400), MXoM (Myri-10G NICs + Myri-10G
// switch) or MXoE (Myri-10G NICs + the 10GigE switch).
//
// All calibration constants for the fabrics live here; the NIC-internal
// constants live in each NIC package's DefaultConfig. EXPERIMENTS.md records
// how the resulting end-to-end numbers compare with the paper's.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/iwarp"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/pdes"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Kind selects one of the four network stacks the paper compares.
type Kind int

// The four stacks of the paper's comparison.
const (
	IWARP Kind = iota // NetEffect NE010 iWARP verbs over 10GigE
	IB                // Mellanox 4X InfiniBand verbs
	MXoM              // MX-10G over the Myrinet switch
	MXoE              // MX-10G over the Ethernet switch
)

// Kinds lists all four stacks in the paper's presentation order.
var Kinds = []Kind{IWARP, IB, MXoM, MXoE}

// VerbsKinds lists the two QP/verbs stacks used in the head-to-head
// multi-connection comparison (Section 5.1).
var VerbsKinds = []Kind{IWARP, IB}

// String returns the label the paper's figures use.
func (k Kind) String() string {
	switch k {
	case IWARP:
		return "iWARP"
	case IB:
		return "IB"
	case MXoM:
		return "MXoM"
	case MXoE:
		return "MXoE"
	}
	return "unknown"
}

// Slug returns the lowercase stack name the command-line tools accept and
// figure/CSV identifiers use: iwarp, ib, mxom or mxoe.
func (k Kind) Slug() string { return strings.ToLower(k.String()) }

// ParseKind resolves a stack name: any Kind's Slug, case-insensitively, or
// one of the aliases "infiniband" (IB) and "myrinet" (MXoM).
func ParseKind(s string) (Kind, bool) {
	switch s = strings.ToLower(s); s {
	case "infiniband":
		return IB, true
	case "myrinet":
		return MXoM, true
	}
	for _, k := range Kinds {
		if k.Slug() == s {
			return k, true
		}
	}
	return 0, false
}

// IsMX reports whether the stack is an MX library flavour.
func (k Kind) IsMX() bool { return k == MXoM || k == MXoE }

// FabricConfig returns the physical-network model for a stack.
func FabricConfig(k Kind) fabric.Config {
	switch k {
	case IWARP, MXoE:
		// Fujitsu XG700 10-Gigabit Ethernet switch, CX4 cabling. 38 bytes
		// of per-frame overhead: preamble 8 + MAC 14 + FCS 4 + IFG 12.
		return fabric.Config{
			Name:          "10gige",
			LinkRate:      sim.Gbps(10),
			FrameOverhead: 38,
			HeaderBytes:   64,
			SwitchLatency: 450 * sim.Nanosecond,
			PropDelay:     25 * sim.Nanosecond,
			CutThrough:    true,
		}
	case IB:
		// Mellanox MTS2400 24-port 4X switch. The 1 GB/s rate is the 8b/10b
		// data rate of a 10 Gb/s 4X SDR link.
		return fabric.Config{
			Name:          "ib-4x",
			LinkRate:      sim.Rate(1e9),
			FrameOverhead: 8,
			HeaderBytes:   64,
			SwitchLatency: 200 * sim.Nanosecond,
			PropDelay:     25 * sim.Nanosecond,
			CutThrough:    true,
		}
	case MXoM:
		// Myricom Myri-10G 16-port switch: lower per-hop latency and leaner
		// framing than Ethernet.
		return fabric.Config{
			Name:          "myri-10g",
			LinkRate:      sim.Gbps(10),
			FrameOverhead: 8,
			HeaderBytes:   32,
			SwitchLatency: 300 * sim.Nanosecond,
			PropDelay:     25 * sim.Nanosecond,
			CutThrough:    true,
		}
	}
	panic(fmt.Sprintf("cluster: bad kind %d", int(k)))
}

// MXConfig returns the MX endpoint model for an MX flavour. MXoE pays the
// heavier Ethernet encapsulation per packet.
func MXConfig(k Kind) mx.Config {
	cfg := mx.DefaultConfig()
	if k == MXoE {
		cfg.PacketHeader = 30 // Ethernet MAC header + MX-over-Ethernet tag
	}
	return cfg
}

// Host is one cluster node.
type Host struct {
	Name string
	Mem  *mem.Memory

	// At most one NIC model: New and NewWithOptions set exactly the one
	// the testbed's Kind names, matching the paper's one-NIC-per-experiment
	// setup. A host whose NIC the caller attaches through Build (the
	// sockets package's kernel-TCP and TOE pairs) sets none of them.
	RNIC *iwarp.RNIC
	HCA  *ib.HCA
	MX   *mx.Endpoint
}

// NIC returns the host's device as a verbs.NIC (nil for MX hosts).
func (h *Host) NIC() verbs.NIC {
	switch {
	case h.RNIC != nil:
		return h.RNIC
	case h.HCA != nil:
		return h.HCA
	}
	return nil
}

// PollDetect returns the host's completion-polling granularity.
func (h *Host) PollDetect() sim.Time {
	switch {
	case h.RNIC != nil:
		return h.RNIC.PollDetect()
	case h.HCA != nil:
		return h.HCA.PollDetect()
	case h.MX != nil:
		return h.MX.PollDetect()
	}
	return 0
}

// Testbed is an assembled cluster on one network. Eng is the primary
// engine: the world's only engine unless Options.Shards split it, in which
// case it is shard 0's engine and every host's own events run on EngOf(host
// index).
type Testbed struct {
	Eng    *sim.Engine
	Kind   Kind
	Fabric *fabric.Network
	Hosts  []*Host

	// engs holds one engine per shard (just Eng for an unsplit world) and
	// shardOf maps each host to its shard; rt is the conservative parallel
	// runtime that drives two or more shard engines.
	engs    []*sim.Engine
	shardOf []int
	rt      *pdes.Runtime
}

// Shards returns the effective shard count: 1 for a world that runs on one
// engine, the number of shard engines otherwise.
func (tb *Testbed) Shards() int { return len(tb.engs) }

// EngOf returns the engine that executes host i's events. NIC processes,
// MPI ranks and fault windows targeting host i all belong on this engine.
func (tb *Testbed) EngOf(i int) *sim.Engine { return tb.engs[tb.shardOf[i]] }

// Go spawns a process on host i's engine — the shard-aware replacement for
// tb.Eng.Go in benchmark drivers.
func (tb *Testbed) Go(i int, name string, fn func(p *sim.Proc)) *sim.Proc {
	return tb.EngOf(i).Go(name, fn)
}

// New builds a testbed of `nodes` hosts on the given network, with its own
// simulation engine.
func New(kind Kind, nodes int) *Testbed {
	return NewWithOptions(kind, nodes, Options{})
}

// Options overrides the calibrated NIC configurations, for ablation studies
// (pipeline width, context-cache size, MPA framing, thresholds), and the
// fabric shape for beyond-the-testbed scaling experiments.
type Options struct {
	IWARP *iwarp.Config
	IB    *ib.Config
	MX    *mx.Config

	// Topology, when non-nil, replaces the single switch with a
	// multi-switch leaf–spine fabric (see fabric.NewWithTopology). Host i
	// attaches to leaf i/HostsPerLeaf.
	Topology *fabric.TopologySpec

	// Congestion, when non-nil, arms bounded switch queues and ECN marking
	// on the fabric (see fabric.SetCongestion). Nil keeps the historical
	// infinite-buffer switch. How a stack *reacts* to the resulting marks
	// and drops is configured on its NIC: iwarp.Config.DCQCN,
	// ib.Config.VLCredits, mx.Config.ThrottleBacklog.
	Congestion *fabric.CongestionConfig

	// Shards, when >= 2, runs the world under the conservative parallel
	// runtime (internal/pdes): hosts are partitioned across that many
	// shard engines (whole leaves in a topology, round-robin on a single
	// switch). It is an execution hint: output is byte-identical at any
	// value, and 0 and 1 both run the world as a plain Engine.Run on one
	// engine. The effective count is clamped to the partitionable units,
	// and the verbs stacks (iWARP, IB) are pinned to one shard: their MPI
	// binding wires QP state on the remote host synchronously, a
	// zero-lookahead interaction the barrier protocol cannot license.
	Shards int
}

// OnNew, when non-nil, is invoked with every Testbed that Build makes (every
// world: MPI, verbs, MX and sockets), once its NICs are attached and before
// it is returned. Benchmark drivers construct testbeds deep inside their run
// functions; the hook lets a harness (cmd/netbench's -trace/-metrics flags)
// attach a tracer or capture the metrics registry without threading options
// through every benchmark signature.
var OnNew func(*Testbed)

// effectiveShards clamps a requested shard count to what the world can
// partition: whole leaves in a topology, hosts on a single switch, and
// always 1 for the verbs stacks (see Options.Shards).
func effectiveShards(kind Kind, nodes int, opts Options) int {
	if opts.Shards <= 1 || !kind.IsMX() {
		return 1
	}
	units := nodes
	if opts.Topology != nil {
		units = (nodes + opts.Topology.HostsPerLeaf - 1) / opts.Topology.HostsPerLeaf
	}
	if fc := FabricConfig(kind); fc.Lookahead() <= 0 {
		return 1
	}
	return min(opts.Shards, max(units, 1))
}

// NewWithOptions is New with per-NIC configuration overrides: Build with
// the kind's own NIC on every host.
func NewWithOptions(kind Kind, nodes int, opts Options) *Testbed {
	return Build(kind, nodes, opts, func(tb *Testbed, i int) {
		h, eng := tb.Hosts[i], tb.EngOf(i)
		switch kind {
		case IWARP:
			cfg := iwarp.DefaultConfig()
			if opts.IWARP != nil {
				cfg = *opts.IWARP
			}
			h.RNIC = iwarp.New(eng, h.Name+"/ne010", h.Mem, tb.Fabric, cfg)
		case IB:
			cfg := ib.DefaultConfig()
			if opts.IB != nil {
				cfg = *opts.IB
			}
			h.HCA = ib.New(eng, h.Name+"/mhea28", h.Mem, tb.Fabric, cfg)
		case MXoM, MXoE:
			cfg := MXConfig(kind)
			if opts.MX != nil {
				cfg = *opts.MX
			}
			h.MX = mx.NewEndpoint(eng, h.Name+"/myri10g", h.Mem, tb.Fabric, cfg)
		}
	})
}

// Build is the one way a world is made. It builds the engine(s), kind's
// fabric and `nodes` hosts with their memories, then calls attach(tb, i)
// for each host in order to give host i its NIC on tb.Fabric (so host i
// backs port i, on engine tb.EngOf(i)). OnNew runs only after every NIC is
// attached, because faults.Attach sizes its per-port state from the ports
// that exist. NewWithOptions attaches the kind's RDMA NIC; the sockets
// package attaches its kernel-TCP and TOE NICs to a cluster.IWARP testbed.
func Build(kind Kind, nodes int, opts Options, attach func(tb *Testbed, i int)) *Testbed {
	if nodes < 2 {
		panic("cluster: need at least 2 nodes")
	}
	shards := effectiveShards(kind, nodes, opts)
	engs := make([]*sim.Engine, shards)
	for s := range engs {
		engs[s] = sim.NewEngine()
	}
	eng := engs[0]
	// shardOf maps host i (== its fabric port id) to its shard: whole
	// leaves in a topology (the trunk lines belong to their leaf's shard),
	// round-robin hosts on a single switch.
	shardOf := make([]int, nodes)
	for i := range shardOf {
		if opts.Topology != nil {
			shardOf[i] = (i / opts.Topology.HostsPerLeaf) % shards
		} else {
			shardOf[i] = i % shards
		}
	}
	tb := &Testbed{Eng: eng, Kind: kind, engs: engs, shardOf: shardOf}
	tb.Fabric = fabric.NewWithTopology(eng, FabricConfig(kind), opts.Topology)
	if opts.Congestion != nil {
		tb.Fabric.SetCongestion(*opts.Congestion)
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		tb.Hosts = append(tb.Hosts, &Host{Name: name, Mem: mem.NewMemory(tb.EngOf(i), name)})
	}
	for i := range tb.Hosts {
		attach(tb, i)
	}
	if shards > 1 {
		tb.rt = pdes.New(engs, FabricConfig(kind).Lookahead())
		tb.Fabric.Shard(engs, shardOf, tb.rt)
	}
	if OnNew != nil {
		OnNew(tb)
	}
	return tb
}

// Close shuts the engine(s) down, unwinding NIC processes shard by shard.
func (tb *Testbed) Close() {
	for _, e := range tb.engs {
		e.Close()
	}
}

// CheckFaults rejects a scenario the stack cannot run. Only iWARP has a
// reliability layer (the offloaded TCP) under it; the IB and Myrinet
// fabrics are link-level lossless, so a clause that loses frames would
// hang or break their models, and the run would report a meaningless
// number instead of failing. Corruption stays allowed everywhere: IB and MX
// ignore the flag, as their link-level CRC retry sits below the model.
func CheckFaults(k Kind, sc *faults.Scenario) error {
	if k == IWARP || sc == nil {
		return nil
	}
	for i, cl := range sc.Clauses {
		if cl.Drops() {
			return fmt.Errorf("cluster: clause %d (%s) loses frames, which the lossless %v fabric cannot recover; use a pausing flap, rate or congest", i, cl.Kind, k)
		}
	}
	return nil
}

// ApplyFaults compiles a fault scenario against this testbed's fabric and
// NICs (see internal/faults), after CheckFaults. Host i's NIC backs port i;
// MX endpoints and the sockets package's TCP hosts have no stallable
// protocol engine, so nic-stall clauses aimed at them are rejected by
// faults.Attach. A nil or empty scenario attaches nothing and returns nil,
// keeping the run bit-identical to an un-faulted testbed. Clause windows
// are virtual time from world build, which is when every workload starts,
// so a world whose clock has already moved is refused: its windows would
// be partly or wholly spent.
func (tb *Testbed) ApplyFaults(sc *faults.Scenario) (*faults.Injector, error) {
	if now := tb.Eng.Now(); now != 0 {
		return nil, fmt.Errorf("cluster: faults applied at %v; clause windows count from t = 0, so apply them before the world runs", now)
	}
	if err := CheckFaults(tb.Kind, sc); err != nil {
		return nil, err
	}
	nics := make([]faults.EngineStaller, len(tb.Hosts))
	for i, h := range tb.Hosts {
		nics[i], _ = h.NIC().(faults.EngineStaller)
	}
	return faults.Attach(tb.Fabric, nics, sc)
}

// MustApplyFaults is ApplyFaults for static scenarios known to be valid
// (benchmark drivers, tests); it panics on scenario errors.
func (tb *Testbed) MustApplyFaults(sc *faults.Scenario) *faults.Injector {
	inj, err := tb.ApplyFaults(sc)
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	return inj
}

// ConnectQP establishes a verbs QP pair between hosts i and j. It panics
// unless both hosts carry an RDMA NIC: MX is connectionless (use the
// endpoints directly), and the sockets package's TCP hosts have none.
func (tb *Testbed) ConnectQP(i, j int) (verbs.QP, verbs.QP) {
	a, b := tb.Hosts[i], tb.Hosts[j]
	switch {
	case a.RNIC != nil && b.RNIC != nil:
		qa, qb := iwarp.Connect(a.RNIC, b.RNIC)
		return qa, qb
	case a.HCA != nil && b.HCA != nil:
		qa, qb := ib.Connect(a.HCA, b.HCA)
		return qa, qb
	}
	panic(fmt.Sprintf("cluster: ConnectQP(%d, %d) on a %v testbed: %s and %s carry no RDMA NIC", i, j, tb.Kind, a.Name, b.Name))
}

// Run drives the simulation until every shard's event heap drains: a plain
// Engine.Run on a one-engine world, the conservative barrier protocol on a
// sharded one. Either way the clock stops at the world's last event.
//
// Every process is a program a driver started (the stacks run as event
// handlers), so a world ends when its programs do. Run returns an error
// naming every process still live once the heaps have drained: a program
// parked on something no event can bring about any more, such as a
// deadlocked exchange.
func (tb *Testbed) Run() error {
	var err error
	if len(tb.engs) == 1 {
		err = tb.Eng.Run()
	} else {
		err = tb.rt.Run()
	}
	if err != nil {
		return err
	}
	var live []string
	for _, e := range tb.engs {
		if !e.Idle() {
			return nil // stopped before the world drained
		}
		live = append(live, e.ProcNames()...)
	}
	if len(live) > 0 {
		sort.Strings(live)
		return fmt.Errorf("cluster: the world drained with %d programs still parked: %s", len(live), strings.Join(live, ", "))
	}
	return nil
}
