// Package ib models a Mellanox-style 4X InfiniBand host channel adapter
// (the paper's MHEA28-XT "MemFree" card) and its reliable-connection (RC)
// transport: queue pairs, 2 KB MTU packetization, hardware ACKs, RDMA Write
// / Read / Send-Receive, and — central to the paper's Figure 2 — a
// processor-based NIC core whose small QP-context cache serializes traffic
// once more than a handful of connections are active.
//
// Contrast with internal/iwarp: the iWARP RNIC has a pipelined protocol
// engine (many concurrent contexts), while this HCA processes one packet at
// a time per direction and pays a context reload whenever it switches to a
// QP that fell out of its context cache. The paper speculates exactly this
// ("we speculate that the processor-based communication in IB NIC core
// hardware is the main reason behind the serialization").
package ib

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Config is the HCA cost model.
type Config struct {
	// MTU is the IB path MTU (2048 on the testbed).
	MTU int
	// PacketHeader is LRH+BTH+ICRC overhead per packet.
	PacketHeader int
	// TxPktTime and RxPktTime are processing-engine occupancy per packet.
	TxPktTime sim.Time
	RxPktTime sim.Time
	// AckTime is engine occupancy for transport ACK handling.
	AckTime sim.Time
	// CqeTime is extra send-processor occupancy after the last packet of a
	// message leaves (completion bookkeeping / CQE writeback); it gates the
	// message issue rate (the LogP gap) without adding to one-way latency.
	CqeTime sim.Time
	// CtxCacheSize is the number of QP contexts the engine holds; switching
	// to an uncached QP costs CtxMissTime (fetch from adapter/host memory —
	// the MemFree card keeps contexts in host memory).
	CtxCacheSize int
	CtxMissTime  sim.Time
	// InlineSize is the largest payload carried inside the WQE itself,
	// avoiding a second DMA read for small sends.
	InlineSize int
	// VLs and VLCredits arm credit-based link-level flow control on the
	// host link: each virtual lane holds VLCredits packet credits, a QP's
	// packets ride VL qpn mod VLs, and a packet may not enter the send
	// processor until its lane has a credit. A credit returns CreditReturn
	// after the packet's uplink serialization ends — the switch forwarding
	// it and granting fresh buffer — so a stalled or congested uplink
	// starves the lane and the sender stalls instead of overflowing the
	// switch (IB loses nothing; it waits). VLCredits == 0 disables flow
	// control entirely (infinite credits, the historical model). All
	// bookkeeping lives on the sending HCA's engine, which keeps sharded
	// runs deterministic.
	VLs          int
	VLCredits    int
	CreditReturn sim.Time

	// PostOverhead is host-CPU time per posted work request.
	PostOverhead sim.Time
	// PollDetect is the completion/buffer polling granularity.
	PollDetect sim.Time
	// RegCost prices ibv_reg_mr-style registration.
	RegCost mem.RegCost
	// PCIe is the host slot configuration.
	PCIe pci.Config
}

// DefaultConfig approximates the paper's MHEA28-XT on PCIe x8. The MemFree
// card keeps QP context in host memory, so context fetches and CQE writes
// ride the same chipset path as data; its effective shared-path headroom is
// lower than the NetEffect card's (the paper's both-way results: iWARP
// ~1950 MB/s vs IB ~89% of 2 GB/s).
func DefaultConfig() Config {
	pcie := pci.PCIeX8()
	pcie.SharedRate = 1820 * sim.MBps
	return Config{
		MTU:          2048,
		PacketHeader: 30,
		TxPktTime:    sim.Micros(1.10),
		RxPktTime:    sim.Micros(1.10),
		AckTime:      sim.Micros(0.15),
		CqeTime:      sim.Micros(0.80),
		CtxCacheSize: 8,
		CtxMissTime:  sim.Micros(3.0),
		InlineSize:   128,
		PostOverhead: sim.Micros(0.25),
		PollDetect:   sim.Micros(0.10),
		RegCost: mem.RegCost{
			Base:      sim.Micros(30),
			PerPage:   sim.Micros(14),
			DeregBase: sim.Micros(2),
		},
		PCIe: pcie,
	}
}

// HCA is one InfiniBand adapter.
type HCA struct {
	eng     *sim.Engine
	name    string
	cfg     Config
	hostMem *mem.Memory
	reg     *mem.RegTable
	pcie    *pci.Bus
	port    *fabric.Port
	dev     verbs.Device // what every QP's verbs front end shares

	txEngine *sim.Resource // the embedded send processor (capacity 1)
	rxEngine *sim.Resource // the embedded receive processor (capacity 1)
	ctx      *ctxCache

	// vls are the per-virtual-lane credit pools (nil when VLCredits == 0:
	// no link-level flow control, byte-identical to the pre-credit model).
	vls          []*sim.Resource
	creditStalls int64

	qps []*QP

	// pkts recycles packet structs: shared by every HCA on the engine, so
	// a packet taken by the sender is reused once the receiver is done.
	pkts *sim.FreeList[packet]

	cPktsTx, cPktsRx, cAcksRx *metrics.Counter
	cCtxHits, cCtxMisses      *metrics.Counter
	cReadReqs, cEngineStalls  *metrics.Counter
	cCreditStalls             *metrics.Counter
}

// New creates an HCA attached to hostMem and the IB fabric.
func New(eng *sim.Engine, name string, hostMem *mem.Memory, net *fabric.Network, cfg Config) *HCA {
	h := &HCA{
		eng:      eng,
		name:     name,
		cfg:      cfg,
		hostMem:  hostMem,
		reg:      mem.NewRegTable(eng, name, cfg.RegCost),
		pcie:     pci.New(eng, cfg.PCIe),
		txEngine: sim.NewResource(eng, name+"/tx-proc", 1),
		rxEngine: sim.NewResource(eng, name+"/rx-proc", 1),
		ctx:      newCtxCache(cfg.CtxCacheSize),
		pkts:     sim.FreeListOf[packet](eng),
	}
	h.dev = verbs.Device{Eng: eng, Name: name, PostOverhead: cfg.PostOverhead,
		PollDetect: cfg.PollDetect, Bus: h.pcie, ToHost: h.pcie.WriteAsync}
	if cfg.VLCredits < 0 || cfg.VLs < 0 {
		panic(fmt.Sprintf("ib %s: negative VL config %d/%d", name, cfg.VLs, cfg.VLCredits))
	}
	if cfg.VLCredits > 0 {
		if cfg.VLs == 0 {
			cfg.VLs = 1
		}
		if cfg.CreditReturn <= 0 {
			cfg.CreditReturn = sim.Microsecond
		}
		h.cfg = cfg
		h.vls = make([]*sim.Resource, cfg.VLs)
		for i := range h.vls {
			h.vls[i] = sim.NewResource(eng, fmt.Sprintf("%s/vl%d-credits", name, i), cfg.VLCredits)
		}
	}
	h.port = net.Attach(h)
	mreg := eng.Metrics()
	h.cPktsTx = mreg.Counter("ib.pkts_tx")
	h.cPktsRx = mreg.Counter("ib.pkts_rx")
	h.cAcksRx = mreg.Counter("ib.acks_rx")
	h.cCtxHits = mreg.Counter("ib.ctx_hits")
	h.cCtxMisses = mreg.Counter("ib.ctx_misses")
	h.cReadReqs = mreg.Counter("ib.read_requests")
	h.cEngineStalls = mreg.Counter("ib.engine_stalls")
	h.cCreditStalls = mreg.Counter("ib.credit_stalls")
	return h
}

// CreditStalls returns how many packets found their virtual lane out of
// credits and had to wait (zero with flow control disabled).
func (h *HCA) CreditStalls() int64 { return h.creditStalls }

// touchCtx loads the context for qpn, counting hit/miss, and reports whether
// it was a miss (the engine then pays CtxMissTime).
func (h *HCA) touchCtx(qpn int) bool {
	miss := h.ctx.touch(qpn)
	if miss {
		h.cCtxMisses.Inc()
	} else {
		h.cCtxHits.Inc()
	}
	return miss
}

// Name implements verbs.NIC.
func (h *HCA) Name() string { return h.name }

// Reg implements verbs.NIC.
func (h *HCA) Reg() *mem.RegTable { return h.reg }

// Mem implements verbs.NIC.
func (h *HCA) Mem() *mem.Memory { return h.hostMem }

// Config returns the HCA's cost model.
func (h *HCA) Config() Config { return h.cfg }

// PollDetect returns the polling granularity.
func (h *HCA) PollDetect() sim.Time { return h.cfg.PollDetect }

// CtxMisses returns how many QP-context reloads the engine has done.
func (h *HCA) CtxMisses() int64 { return h.ctx.misses }

// StallEngines implements faults.EngineStaller: both embedded processors
// stop accepting work for d virtual time. The HCA's engines have capacity
// one, so a stall is simply an exclusive occupancy of each.
func (h *HCA) StallEngines(d sim.Time) {
	h.eng.Go(h.name+"/engine-stall", func(p *sim.Proc) {
		start := h.eng.Now()
		h.txEngine.Acquire(p, 1)
		h.rxEngine.Acquire(p, 1)
		p.Sleep(d)
		h.rxEngine.Release(1)
		h.txEngine.Release(1)
		h.cEngineStalls.Inc()
		h.eng.Trc().Complete(h.name, "engine-stall", int64(start), int64(h.eng.Now()))
	})
}

// Deliver implements fabric.Endpoint. The fabric's Corrupt mark is ignored:
// IB's link-level CRC retry sits below the layers this model prices, so a
// damaged packet is retried invisibly at the link (corruption injection is
// an iWARP/Ethernet experiment — see internal/faults).
func (h *HCA) Deliver(f *fabric.Frame) {
	pk := f.Payload.(*packet)
	if pk.dstQPN < 0 || pk.dstQPN >= len(h.qps) {
		panic(fmt.Sprintf("ib %s: packet for unknown QP %d", h.name, pk.dstQPN))
	}
	pk.cause = f.Cause // chain rx processing from the delivering wire hop
	h.qps[pk.dstQPN].rxQ.Put(pk)
}

// Connect establishes an RC queue pair between two HCAs.
func Connect(a, b *HCA) (*QP, *QP) {
	if a == b {
		panic("ib: loopback QP not supported")
	}
	qa := a.newQP()
	qb := b.newQP()
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// ctxCache is the LRU QP-context cache shared by the send and receive
// processors.
type ctxCache struct {
	cap    int
	order  []int // LRU first
	member map[int]bool
	misses int64
	hits   int64
}

func newCtxCache(capacity int) *ctxCache {
	return &ctxCache{cap: capacity, member: make(map[int]bool)}
}

// touch loads the context for qpn and reports whether it was a miss.
func (c *ctxCache) touch(qpn int) bool {
	if c.member[qpn] {
		c.hits++
		for i, q := range c.order {
			if q == qpn {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.order = append(c.order, qpn)
		return false
	}
	c.misses++
	if len(c.order) >= c.cap {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.member, old)
	}
	c.member[qpn] = true
	c.order = append(c.order, qpn)
	return true
}
