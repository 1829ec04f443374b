package sockets

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// HostTCPConfig models conventional kernel TCP/IP on a plain (non-offload)
// 10GigE NIC, 2006-era Linux on the testbed's 2.8 GHz Xeons.
type HostTCPConfig struct {
	// MTU selects standard (1500) or jumbo (9000) frames.
	MTU int
	// SyscallCost is charged per send()/recv() call (entry, wakeup,
	// scheduling).
	SyscallCost sim.Time
	// KernelPerPkt is host-CPU protocol processing per segment (header
	// parsing, TCP state machine, skb management).
	KernelPerPkt sim.Time
	// ChecksumCopyRate is the CPU's combined checksum-and-copy pass over
	// payload bytes (no checksum offload).
	ChecksumCopyRate sim.Rate
	// IRQDelay is interrupt latency from wire arrival to softirq start.
	IRQDelay sim.Time
	// AckCost is CPU time to process a pure ACK.
	AckCost sim.Time
	// PCIe is the NIC's host bus.
	PCIe pci.Config
}

// DefaultHostTCPConfig returns the jumbo-frame kernel-TCP model. The
// resulting single-stream numbers (one-way latency ~15-16us, goodput
// ~500-600 MB/s, CPU-bound) match contemporary 10GigE evaluations on
// comparable hosts.
func DefaultHostTCPConfig() HostTCPConfig {
	return HostTCPConfig{
		MTU:              9000,
		SyscallCost:      sim.Micros(1.2),
		KernelPerPkt:     sim.Micros(2.6),
		ChecksumCopyRate: 750 * sim.MBps,
		IRQDelay:         sim.Micros(3.5),
		AckCost:          sim.Micros(0.8),
		PCIe:             pci.PCIeX8(),
	}
}

// hostTCP is one side of a kernel-TCP connection.
type hostTCP struct {
	eng  *sim.Engine
	name string
	cfg  HostTCPConfig
	mem  *mem.Memory
	cpu  *sim.Resource // the host CPU: app syscalls and kernel work contend
	pcie *pci.Bus
	port *fabric.Port
	peer *hostTCP
	conn *tcpsim.Conn

	rxQ    *sim.Queue[tcpsim.Segment]
	rcv    *stream
	txKick *sim.Queue[struct{}]
}

// NewHostTCPPair builds two kernel-TCP endpoints on a fresh two-node
// 10GigE fabric inside eng.
func NewHostTCPPair(eng *sim.Engine, cfg HostTCPConfig) (Endpoint, Endpoint) {
	net := fabric.New(eng, cluster.FabricConfig(cluster.IWARP)) // same XG700 switch
	mk := func(name string) *hostTCP {
		h := &hostTCP{
			eng:    eng,
			name:   name,
			cfg:    cfg,
			mem:    mem.NewMemory(eng, name),
			cpu:    sim.NewResource(eng, name+"/cpu", 1),
			pcie:   pci.New(eng, cfg.PCIe),
			rxQ:    sim.NewQueue[tcpsim.Segment](eng, name+"/rxq"),
			rcv:    newStream(eng),
			txKick: sim.NewQueue[struct{}](eng, name+"/txkick"),
		}
		h.conn = tcpsim.NewConn(eng, name)
		h.conn.MSS = cfg.MTU - 40
		h.conn.RTO = 200 * sim.Millisecond // Linux's minimum RTO
		h.conn.OnSendable = func() { h.txKick.Put(struct{}{}) }
		h.port = net.Attach(h)
		eng.Go(name+"/ksoftirqd", h.rxLoop)
		eng.Go(name+"/ktx", h.txLoop)
		return h
	}
	a := mk("hosttcp0")
	b := mk("hosttcp1")
	a.peer, b.peer = b, a
	return a, b
}

// Mem implements Endpoint.
func (h *hostTCP) Mem() *mem.Memory { return h.mem }

// Name implements Endpoint.
func (h *hostTCP) Name() string { return "TCP/host" }

// Deliver implements fabric.Endpoint: frames reach the kernel after the
// interrupt latency.
func (h *hostTCP) Deliver(f *fabric.Frame) {
	seg := f.Payload.(tcpsim.Segment)
	h.eng.After(h.cfg.IRQDelay, func() { h.rxQ.Put(seg) })
}

// Send implements Endpoint: syscall, checksum+copy into the socket buffer,
// hand records to TCP. The kernel transmit path (txLoop) does the
// per-packet work on the same CPU.
func (h *hostTCP) Send(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sockets %s: send %d", h.name, n))
	}
	h.cpu.Acquire(pr, 1)
	pr.Sleep(h.cfg.SyscallCost)
	// Data is handed to TCP in socket-buffer chunks: the copy overlaps
	// transmission of earlier chunks, and releasing the CPU between chunks
	// lets softirq work (ACK processing!) run — a monolithic megabyte copy
	// would starve the stack into spurious retransmission timeouts.
	const chunk = 64 << 10
	for o := off; o < off+n; o += chunk {
		c := min(chunk, off+n-o)
		pr.Sleep(h.cfg.ChecksumCopyRate.TxTime(c) + h.mem.TouchCost(buf, o, c))
		// The record carries a copy-on-write view: the bytes count as
		// copied out now, and a later write to buf freezes them.
		v := buf.View(o, c)
		h.conn.Send(c, v)
		v.Release()
		h.txKick.Put(struct{}{})
		h.cpu.Release(1)
		h.cpu.Acquire(pr, 1)
	}
	h.cpu.Release(1)
}

// Recv implements Endpoint: block for n bytes, then copy them out under the
// CPU.
func (h *hostTCP) Recv(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	h.rcv.await(pr, n)
	h.cpu.Acquire(pr, 1)
	pr.Sleep(h.cfg.SyscallCost)
	pr.Sleep(h.mem.CopyRate.TxTime(n) + h.mem.TouchCost(buf, off, n))
	h.rcv.take(buf, off, n)
	h.cpu.Release(1)
}

// txLoop is the kernel transmit path: per-segment protocol work on the CPU,
// then DMA to the NIC and onto the wire. The next frame's DMA is booked
// before waiting on the current one (NIC descriptor rings prefetch).
func (h *hostTCP) txLoop(p *sim.Proc) {
	for {
		h.txKick.Get(p)
		cur, ok := h.conn.NextSegment()
		if !ok {
			continue
		}
		h.cpu.Use(p, h.cfg.KernelPerPkt)
		curReady, _ := h.pcie.ReadNext(p.Now(), cur.Len+40)
		for {
			next, more := h.conn.NextSegment()
			var nextReady sim.Time
			if more {
				h.cpu.Use(p, h.cfg.KernelPerPkt)
				nextReady, _ = h.pcie.ReadNext(p.Now(), next.Len+40)
			}
			p.SleepUntil(curReady)
			h.emit(cur)
			if !more {
				break
			}
			cur, curReady = next, nextReady
		}
	}
}

func (h *hostTCP) emit(seg tcpsim.Segment) {
	h.port.Send(&fabric.Frame{
		Src:     h.port.ID(),
		Dst:     h.peer.port.ID(),
		Bytes:   h.conn.WireBytes(seg),
		Payload: seg,
	})
}

// rxLoop is the softirq path: per-segment protocol work plus the
// checksum+copy pass into the socket buffer, all on the host CPU.
func (h *hostTCP) rxLoop(p *sim.Proc) {
	for {
		seg := h.rxQ.Get(p)
		h.cpu.Acquire(p, 1)
		if seg.Len == 0 {
			p.Sleep(h.cfg.AckCost)
		} else {
			p.Sleep(h.cfg.KernelPerPkt)
			p.Sleep(h.cfg.ChecksumCopyRate.TxTime(seg.Len))
		}
		// NIC already DMA'd the frame into ring buffers; charge the bus.
		h.pcie.WriteAsync(seg.Len + 40)
		recs, ack, need := h.conn.Input(seg)
		h.cpu.Release(1)
		if need {
			h.emit(ack)
		}
		for _, rec := range recs {
			h.rcv.push(rec.Meta.(*mem.View))
		}
	}
}
