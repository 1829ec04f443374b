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
	tcpEnd
	cfg  HostTCPConfig
	cpu  *sim.Resource // the host CPU: app syscalls and kernel work contend
	pcie *pci.Bus
	irqs sim.Ring[tcpsim.Segment] // arrived segments waiting out IRQDelay
}

// NewHostTCPPair builds two kernel-TCP endpoints on a two-node 10GigE
// testbed whose hosts carry a plain NIC (see newPair).
func NewHostTCPPair(cfg HostTCPConfig) (*cluster.Testbed, Endpoint, Endpoint) {
	return newPair(func(tb *cluster.Testbed, i int) Endpoint {
		h := &hostTCP{tcpEnd: newTCPEnd(tb, i, cfg.MTU), cfg: cfg}
		h.cpu = sim.NewResource(h.eng, h.name+"/cpu", 1)
		h.pcie = pci.New(h.eng, cfg.PCIe)
		h.conn.RTO = 200 * sim.Millisecond // Linux's minimum RTO
		h.port = tb.Fabric.Attach(h)
		h.start(hostRx, hostTx, h)
		return h
	})
}

// Name implements Endpoint.
func (h *hostTCP) Name() string { return "TCP/host" }

// Deliver implements fabric.Endpoint: frames reach the kernel after the
// interrupt latency.
func (h *hostTCP) Deliver(f *fabric.Frame) {
	h.irqs.Push(f.Payload.(tcpsim.Segment))
	h.eng.AfterArg(h.cfg.IRQDelay, hostIRQ, h)
}

// hostIRQ hands host v's oldest interrupted segment to the softirq stage.
// Every interrupt takes IRQDelay, so they end in the order frames arrived.
func hostIRQ(v any) {
	h := v.(*hostTCP)
	h.rxQ.Put(h.irqs.Pop())
}

// Send implements Endpoint: syscall, checksum+copy into the socket buffer,
// hand records to TCP. The kernel transmit path (hostTx) does the
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
		h.kick()
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

// hostTx is the kernel transmit path of host v: per-segment protocol work
// on the CPU, then DMA to the NIC and onto the wire. The next frame's DMA
// is booked before waiting on the current one (NIC descriptor rings
// prefetch).
func hostTx(v any) {
	h := v.(*hostTCP)
	if h.nextTx() {
		h.cpu.UseThen(h.cfg.KernelPerPkt, hostTxFetch, h)
	}
}

// hostTxFetch books the current segment's DMA, then the next segment's.
func hostTxFetch(v any) {
	h := v.(*hostTCP)
	h.txCurReady, _ = h.pcie.ReadNext(h.eng.Now(), h.txCur.Len+40)
	h.bookNext()
}

// bookNext does the protocol work and books the DMA of the segment after
// the current one, if TCP has one, then waits for the current one's DMA.
func (h *hostTCP) bookNext() {
	if h.txNext, h.txMore = h.conn.NextSegment(); h.txMore {
		h.cpu.UseThen(h.cfg.KernelPerPkt, hostTxBooked, h)
		return
	}
	hostTxBooked(h)
}

func hostTxBooked(v any) {
	h := v.(*hostTCP)
	if h.txMore {
		h.txNextReady, _ = h.pcie.ReadNext(h.eng.Now(), h.txNext.Len+40)
	}
	h.eng.AfterArg(h.txCurReady-h.eng.Now(), hostTxEmit, h)
}

func hostTxEmit(v any) {
	h := v.(*hostTCP)
	if h.emitCur() {
		h.bookNext()
		return
	}
	hostTx(h)
}

// hostRx is the softirq path of host v: per-segment protocol work plus the
// checksum+copy pass into the socket buffer, all on the host CPU.
func hostRx(v any) {
	h := v.(*hostTCP)
	seg, ok := h.rxQ.Next()
	if !ok {
		return
	}
	h.rxSeg = seg
	if seg.Len == 0 {
		h.cpu.HoldThen(h.cfg.AckCost, hostRxDone, h)
		return
	}
	h.cpu.HoldThen(h.cfg.KernelPerPkt, hostRxChecksum, h)
}

func hostRxChecksum(v any) {
	h := v.(*hostTCP)
	h.eng.AfterArg(h.cfg.ChecksumCopyRate.TxTime(h.rxSeg.Len), hostRxDone, h)
}

func hostRxDone(v any) {
	h := v.(*hostTCP)
	seg := h.rxSeg
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
	hostRx(h)
}
