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

// TOEConfig models the sockets API running over an offloaded TCP engine
// (the NE010's IPv4 TOE without the iWARP layers): per-packet protocol work
// moves to the NIC, checksums are free, and one copy per side remains
// (user buffer <-> socket buffer, which the NIC DMAs directly).
type TOEConfig struct {
	MTU         int
	SyscallCost sim.Time
	// NICPerPkt is TOE engine occupancy per segment, each direction.
	NICPerPkt sim.Time
	// NICAckTime is engine time for a pure ACK.
	NICAckTime sim.Time
	// CompletionDelay covers the NIC-to-host completion notification
	// (doorbell/event) per arriving record.
	CompletionDelay sim.Time
	PCIe            pci.Config
	Bridge          pci.Config
}

// DefaultTOEConfig returns the NE010-as-a-TOE model: the same internal
// PCI-X bridge bounds bandwidth, but the host only pays syscalls and one
// copy.
func DefaultTOEConfig() TOEConfig {
	bridge := pci.PCIX133()
	bridge.HalfDuplex = false
	bridge.MaxPayload = 192
	return TOEConfig{
		MTU:             9000,
		SyscallCost:     sim.Micros(1.2),
		NICPerPkt:       sim.Micros(1.6),
		NICAckTime:      sim.Micros(0.15),
		CompletionDelay: sim.Micros(1.0),
		PCIe:            pci.PCIeX8(),
		Bridge:          bridge,
	}
}

// toe is one side of a TOE-socket connection.
type toe struct {
	eng    *sim.Engine
	name   string
	cfg    TOEConfig
	mem    *mem.Memory
	engine *sim.Resource // the TOE protocol engine
	pcie   *pci.Bus
	bridge *pci.Bus
	port   *fabric.Port
	peer   *toe
	conn   *tcpsim.Conn

	rxQ    *sim.Queue[tcpsim.Segment]
	rcv    *stream
	txKick *sim.Queue[struct{}]
}

// NewTOEPair builds two TOE-socket endpoints on a fresh 10GigE fabric.
func NewTOEPair(eng *sim.Engine, cfg TOEConfig) (Endpoint, Endpoint) {
	net := fabric.New(eng, cluster.FabricConfig(cluster.IWARP))
	mk := func(name string) *toe {
		t := &toe{
			eng:    eng,
			name:   name,
			cfg:    cfg,
			mem:    mem.NewMemory(eng, name),
			engine: sim.NewResource(eng, name+"/toe-engine", 1),
			pcie:   pci.New(eng, cfg.PCIe),
			bridge: pci.New(eng, cfg.Bridge),
			rxQ:    sim.NewQueue[tcpsim.Segment](eng, name+"/rxq"),
			rcv:    newStream(eng),
			txKick: sim.NewQueue[struct{}](eng, name+"/txkick"),
		}
		t.conn = tcpsim.NewConn(eng, name)
		t.conn.MSS = cfg.MTU - 40
		t.conn.OnSendable = func() { t.txKick.Put(struct{}{}) }
		t.port = net.Attach(t)
		eng.Go(name+"/nic-tx", t.txLoop)
		eng.Go(name+"/nic-rx", t.rxLoop)
		return t
	}
	a := mk("toe0")
	b := mk("toe1")
	a.peer, b.peer = b, a
	return a, b
}

// Mem implements Endpoint.
func (t *toe) Mem() *mem.Memory { return t.mem }

// Name implements Endpoint.
func (t *toe) Name() string { return "TCP/TOE" }

// Deliver implements fabric.Endpoint.
func (t *toe) Deliver(f *fabric.Frame) { t.rxQ.Put(f.Payload.(tcpsim.Segment)) }

// Send implements Endpoint: one copy into the (DMA-able) socket buffer,
// then the NIC takes over.
func (t *toe) Send(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sockets %s: send %d", t.name, n))
	}
	pr.Sleep(t.cfg.SyscallCost)
	// Socket-buffer chunking overlaps the user-buffer copy with the NIC's
	// transmission of earlier chunks.
	const chunk = 64 << 10
	for o := off; o < off+n; o += chunk {
		c := min(chunk, off+n-o)
		pr.Sleep(t.mem.CopyRate.TxTime(c) + t.mem.TouchCost(buf, o, c))
		// The record carries a copy-on-write view: the bytes count as
		// copied out now, and a later write to buf freezes them.
		v := buf.View(o, c)
		t.conn.Send(c, v)
		v.Release()
		t.txKick.Put(struct{}{})
	}
}

// Recv implements Endpoint.
func (t *toe) Recv(pr *sim.Proc, buf *mem.Buffer, off, n int) {
	t.rcv.await(pr, n)
	pr.Sleep(t.cfg.SyscallCost)
	pr.Sleep(t.mem.CopyRate.TxTime(n) + t.mem.TouchCost(buf, off, n))
	t.rcv.take(buf, off, n)
}

// txLoop is the NIC transmit engine: DMA the segment across PCIe and the
// internal bridge, process, emit — with a one-segment DMA prefetch so the
// buses stay busy through engine time.
func (t *toe) txLoop(p *sim.Proc) {
	for {
		t.txKick.Get(p)
		cur, ok := t.conn.NextSegment()
		if !ok {
			continue
		}
		curReady := t.bookDMA(p.Now(), cur.Len+40)
		for {
			next, more := t.conn.NextSegment()
			var nextReady sim.Time
			if more {
				nextReady = t.bookDMA(p.Now(), next.Len+40)
			}
			p.SleepUntil(curReady)
			t.engine.Use(p, t.cfg.NICPerPkt)
			t.emit(cur)
			if !more {
				break
			}
			cur, curReady = next, nextReady
		}
	}
}

// bookDMA books one host-to-NIC fetch: a read on the PCIe DMA chain (see
// pci.Bus.ReadNext), then the internal bridge. Only the PCIe stage chains,
// so consecutive segments overlap PCIe and bridge occupancy (the bridge
// serializes itself through its own line bookkeeping).
func (t *toe) bookDMA(now sim.Time, bytes int) sim.Time {
	pe, first := t.pcie.ReadNext(now, bytes)
	return t.bridge.ReadChained(pe, bytes, first)
}

func (t *toe) emit(seg tcpsim.Segment) {
	t.port.Send(&fabric.Frame{
		Src:     t.port.ID(),
		Dst:     t.peer.port.ID(),
		Bytes:   t.conn.WireBytes(seg),
		Payload: seg,
	})
}

// rxLoop is the NIC receive engine: protocol work on the TOE, DMA into the
// host socket buffer, completion event.
func (t *toe) rxLoop(p *sim.Proc) {
	for {
		seg := t.rxQ.Get(p)
		if seg.Len == 0 {
			t.engine.Use(p, t.cfg.NICAckTime)
			t.conn.Input(seg)
			continue
		}
		t.engine.Use(p, t.cfg.NICPerPkt)
		recs, ack, need := t.conn.Input(seg)
		if need {
			t.emit(ack)
		}
		// Stream the payload to host memory.
		b1 := t.bridge.WriteFrom(t.eng.Now(), seg.Len)
		done := t.pcie.WriteFrom(b1, seg.Len)
		if len(recs) > 0 {
			recsCopy := recs
			t.eng.At(done+t.cfg.CompletionDelay, func() {
				for _, rec := range recsCopy {
					t.rcv.push(rec.Meta.(*mem.View))
				}
			})
		}
	}
}
