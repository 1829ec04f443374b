package iwarp

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/verbs"
)

// Config holds the cost model of one RNIC. The defaults approximate the
// NetEffect NE010 on the paper's testbed; internal/cluster owns the
// calibrated profile.
type Config struct {
	// PipelineWidth is the number of protocol-engine contexts that can be
	// in flight concurrently. The NE010's pipelined protocol engine is what
	// gives iWARP its multi-connection scalability in Figure 2; the
	// width is one of the DESIGN.md ablation knobs.
	PipelineWidth int
	// TxSegTime is protocol-engine occupancy to emit one DDP segment
	// (RDMAP/DDP/MPA/TCP transmit processing); TxPipeDelay is the additional
	// pipeline depth the segment traverses after its slot frees (latency
	// without occupancy: the engine is deeply pipelined).
	TxSegTime   sim.Time
	TxPipeDelay sim.Time
	// RxSegTime / RxPipeDelay are the receive-side equivalents (TCP receive,
	// MPA validation, DDP placement decision).
	RxSegTime   sim.Time
	RxPipeDelay sim.Time
	// RxAckTime is engine occupancy for a pure TCP ACK.
	RxAckTime sim.Time
	// SchedTime is the transaction-switch scheduling slot per segment; it is
	// the fully-serial stage that sets the multi-connection latency floor.
	SchedTime sim.Time
	// PostOverhead is host-CPU time to build and post one work request.
	PostOverhead sim.Time
	// PollDetect is the busy-poll detection granularity for completions and
	// polled target buffers.
	PollDetect sim.Time

	// MSS is the TCP maximum segment size (9000-byte jumbo frames).
	MSS int
	// TCPWindow is the offloaded connection's flow-control window.
	TCPWindow int
	// TCPRTO is the retransmission timeout.
	TCPRTO sim.Time
	// Framing is the MPA marker/CRC configuration.
	Framing Framing

	// DCQCN, when non-nil, arms a per-QP DCQCN-style rate limiter that
	// reacts to ECN echoes and retransmissions by pacing the offloaded
	// TCP's transmissions below line rate (see internal/congestion). Nil
	// keeps the transmit path byte-identical to the unlimited model.
	DCQCN *congestion.RateConfig

	// RegCost prices memory registration through the NE010 protocol engine.
	RegCost mem.RegCost

	// PCIe is the host slot; Bridge is the internal PCI-X the protocol
	// engine sits behind. The bridge is modeled as one 64/133 segment per
	// direction (HalfDuplex=false), which is what caps both-way bandwidth
	// near 2 GB/s while one direction tops out near 1 GB/s.
	PCIe   pci.Config
	Bridge pci.Config
}

// DefaultConfig returns the NE010-like model parameters.
func DefaultConfig() Config {
	bridge := pci.PCIX133()
	bridge.HalfDuplex = false
	bridge.MaxPayload = 192
	return Config{
		PipelineWidth: 16,
		TxSegTime:     sim.Micros(1.0),
		TxPipeDelay:   sim.Micros(0.9),
		RxSegTime:     sim.Micros(1.8),
		RxPipeDelay:   sim.Micros(1.8),
		RxAckTime:     sim.Micros(0.15),
		SchedTime:     sim.Nanos(40),
		PostOverhead:  sim.Micros(0.30),
		PollDetect:    sim.Micros(0.10),
		MSS:           8960,
		TCPWindow:     256 << 10,
		TCPRTO:        sim.Millisecond,
		Framing:       DefaultFraming(),
		RegCost: mem.RegCost{
			Base:      sim.Micros(8),
			PerPage:   sim.Micros(4.5),
			DeregBase: sim.Micros(2),
		},
		PCIe:   pci.PCIeX8(),
		Bridge: bridge,
	}
}

// RNIC is one iWARP channel adapter.
type RNIC struct {
	eng     *sim.Engine
	name    string
	cfg     Config
	hostMem *mem.Memory
	reg     *mem.RegTable
	pcie    *pci.Bus
	bridge  *pci.Bus
	port    *fabric.Port
	dev     verbs.Device // what every QP's verbs front end shares

	txEngine *sim.Resource
	rxEngine *sim.Resource
	txSched  *sim.Resource
	rxSched  *sim.Resource

	qps         []*QP
	maxTagged   int
	maxUntagged int

	// Per-engine free lists (shared by every RNIC on the engine) for the
	// per-frame structs: the frame payload and the deferred rx steps.
	wsegFree  *sim.FreeList[wireSeg]
	passFree  *sim.FreeList[rxPass]
	placeFree *sim.FreeList[placement]

	cSegsTx, cSegsRx, cAcksRx   *metrics.Counter
	cReadReqs, cEarlyArrivals   *metrics.Counter
	cFramingBytes, cMarkerBytes *metrics.Counter
	cCrcRejects, cEngineStalls  *metrics.Counter
	cECNEchoes, cRateCuts       *metrics.Counter
}

// wireSeg is the fabric frame payload: a TCP segment addressed to a QP.
// ece is the TCP header's ECN-Echo bit: the data receiver sets it on the
// ACK it returns for a segment the fabric ECN-marked, closing the DCQCN
// feedback loop back to the sender. It travels as a pointer taken from the
// engine's free list; Deliver copies it out and gives it back.
type wireSeg struct {
	dstQPN int
	seg    tcpsim.Segment
	ece    bool
}

// New creates an RNIC attached to hostMem and the Ethernet fabric.
func New(eng *sim.Engine, name string, hostMem *mem.Memory, net *fabric.Network, cfg Config) *RNIC {
	r := &RNIC{
		eng:       eng,
		name:      name,
		cfg:       cfg,
		hostMem:   hostMem,
		reg:       mem.NewRegTable(eng, name, cfg.RegCost),
		pcie:      pci.New(eng, cfg.PCIe),
		bridge:    pci.New(eng, cfg.Bridge),
		txEngine:  sim.NewResource(eng, name+"/tx-engine", cfg.PipelineWidth),
		rxEngine:  sim.NewResource(eng, name+"/rx-engine", cfg.PipelineWidth),
		txSched:   sim.NewResource(eng, name+"/tx-sched", 1),
		rxSched:   sim.NewResource(eng, name+"/rx-sched", 1),
		wsegFree:  sim.FreeListOf[wireSeg](eng),
		passFree:  sim.FreeListOf[rxPass](eng),
		placeFree: sim.FreeListOf[placement](eng),
	}
	r.dev = verbs.Device{Eng: eng, Name: name, PostOverhead: cfg.PostOverhead,
		PollDetect: cfg.PollDetect, Bus: r.pcie, ToHost: r.engineToHost}
	r.maxTagged = cfg.Framing.MaxPayload(TaggedHeader, cfg.MSS)
	r.maxUntagged = cfg.Framing.MaxPayload(UntaggedHeader, cfg.MSS)
	r.port = net.Attach(r)
	mreg := eng.Metrics()
	r.cSegsTx = mreg.Counter("iwarp.segs_tx")
	r.cSegsRx = mreg.Counter("iwarp.segs_rx")
	r.cAcksRx = mreg.Counter("iwarp.acks_rx")
	r.cReadReqs = mreg.Counter("iwarp.read_requests")
	r.cEarlyArrivals = mreg.Counter("iwarp.early_arrivals")
	r.cFramingBytes = mreg.Counter("iwarp.mpa_framing_bytes")
	r.cMarkerBytes = mreg.Counter("iwarp.mpa_marker_bytes")
	r.cCrcRejects = mreg.Counter("iwarp.mpa_crc_rejects")
	r.cEngineStalls = mreg.Counter("iwarp.engine_stalls")
	r.cECNEchoes = mreg.Counter("iwarp.ecn_echoes")
	r.cRateCuts = mreg.Counter("iwarp.rate_cuts")
	return r
}

// Name implements verbs.NIC.
func (r *RNIC) Name() string { return r.name }

// Reg implements verbs.NIC.
func (r *RNIC) Reg() *mem.RegTable { return r.reg }

// Mem implements verbs.NIC.
func (r *RNIC) Mem() *mem.Memory { return r.hostMem }

// Config returns the RNIC's cost model.
func (r *RNIC) Config() Config { return r.cfg }

// Engine returns the simulation engine.
func (r *RNIC) Engine() *sim.Engine { return r.eng }

// PollDetect returns the configured poll granularity, used by benchmarks
// that poll target buffers.
func (r *RNIC) PollDetect() sim.Time { return r.cfg.PollDetect }

// pipeChunk is the cut-through granularity of the RNIC's internal data
// movers: a downstream stage (the PCI-X bridge, the host DMA engine) starts
// on a chunk as soon as the upstream stage delivers it, rather than waiting
// for a whole DDP segment (store-and-forward would roughly double large-
// message latency).
const pipeChunk = 2048

// hostToEngine books the PCIe read and bridge crossing for `bytes` with
// cut-through chunking and returns when the tail reaches the protocol
// engine. The PCIe reads ride the bus's DMA read chain (see
// pci.Bus.ReadNext); the engine sleeps until each segment is ready before
// booking the next.
func (r *RNIC) hostToEngine(bytes int) sim.Time {
	now := r.eng.Now()
	var end sim.Time
	for off := 0; off < bytes; off += pipeChunk {
		c := min(pipeChunk, bytes-off)
		pe, first := r.pcie.ReadNext(now, c)
		end = r.bridge.ReadChained(pe, c, first)
	}
	return end
}

// engineToHost books the bridge crossing and PCIe write for `bytes` with
// cut-through chunking and returns when the data is visible in host memory.
func (r *RNIC) engineToHost(bytes int) sim.Time {
	now := r.eng.Now()
	var end sim.Time
	for off := 0; off < bytes; off += pipeChunk {
		c := min(pipeChunk, bytes-off)
		t1 := r.bridge.WriteFrom(now, c)
		end = r.pcie.WriteFrom(t1, c)
	}
	return end
}

// Deliver implements fabric.Endpoint: route the TCP segment to its QP. The
// fabric's Corrupt mark rides along so the receive path can reject the
// FPDU on the MPA CRC after paying for the engine work of checking it.
func (r *RNIC) Deliver(f *fabric.Frame) {
	ws := f.Payload.(*wireSeg)
	if ws.dstQPN < 0 || ws.dstQPN >= len(r.qps) {
		panic(fmt.Sprintf("iwarp %s: frame for unknown QP %d", r.name, ws.dstQPN))
	}
	r.qps[ws.dstQPN].rxQ.Put(rxSeg{seg: ws.seg, corrupt: f.Corrupt, ecn: f.ECN, ece: ws.ece, cause: f.Cause})
	r.wsegFree.Put(ws)
}

// StallEngines implements faults.EngineStaller: the protocol engine stops
// accepting new contexts for d virtual time (firmware housekeeping, thermal
// throttling). In-flight segments finish; the stall occupies every pipeline
// slot of both directions, so queued work resumes exactly d later.
func (r *RNIC) StallEngines(d sim.Time) {
	r.eng.Go(r.name+"/engine-stall", func(p *sim.Proc) {
		start := r.eng.Now()
		r.txEngine.Acquire(p, r.cfg.PipelineWidth)
		r.rxEngine.Acquire(p, r.cfg.PipelineWidth)
		p.Sleep(d)
		r.rxEngine.Release(r.cfg.PipelineWidth)
		r.txEngine.Release(r.cfg.PipelineWidth)
		r.cEngineStalls.Inc()
		r.eng.Trc().Complete(r.name, "engine-stall", int64(start), int64(r.eng.Now()))
	})
}

// Connect establishes a connected QP pair (with its underlying offloaded
// TCP connection) between two RNICs, as the paper's tests do before timing
// anything. Connection setup time itself is not modeled.
func Connect(a, b *RNIC) (*QP, *QP) {
	if a == b {
		panic("iwarp: loopback QP not supported")
	}
	qa := a.newQP()
	qb := b.newQP()
	qa.peer, qb.peer = qb, qa
	return qa, qb
}
