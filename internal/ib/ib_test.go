package ib

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

type rig struct {
	eng      *sim.Engine
	net      *fabric.Network
	m0, m1   *mem.Memory
	h0, h1   *HCA
	qp0, qp1 *QP
}

func ibFabric(eng *sim.Engine) *fabric.Network {
	return fabric.New(eng, fabric.Config{
		Name:          "ib-4x",
		LinkRate:      sim.Rate(1e9), // 4X SDR data rate: 1 GB/s
		FrameOverhead: 8,
		HeaderBytes:   64,
		SwitchLatency: 200 * sim.Nanosecond,
		PropDelay:     25 * sim.Nanosecond,
		CutThrough:    true,
	})
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := ibFabric(eng)
	m0 := mem.NewMemory(eng, "host0")
	m1 := mem.NewMemory(eng, "host1")
	cfg := DefaultConfig()
	h0 := New(eng, "hca0", m0, net, cfg)
	h1 := New(eng, "hca1", m1, net, cfg)
	qp0, qp1 := Connect(h0, h1)
	return &rig{eng: eng, net: net, m0: m0, m1: m1, h0: h0, h1: h1, qp0: qp0, qp1: qp1}
}

func (r *rig) close() { r.eng.Close() }

func TestRDMAWriteMovesData(t *testing.T) {
	r := newRig(t)
	defer r.close()
	src := r.m0.Alloc(10_000)
	dst := r.m1.Alloc(10_000)
	src.Fill(42)
	r.eng.Go("bench", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, 10_000)
		ldst := r.h1.Reg().RegisterFree(dst, 0, 10_000)
		r.qp0.PostSend(p, verbs.WR{ID: 1, Op: verbs.OpWrite, Local: lsrc, Len: 10_000, RemoteKey: ldst.Key})
		placed := 0
		for placed < 10_000 {
			pl := r.qp1.Placements().Get(p)
			placed += pl.Len
		}
		comp := r.qp0.SendCQ().Poll(p)
		if comp.WRID != 1 || comp.Op != verbs.OpWrite {
			t.Errorf("completion = %+v", comp)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(42, 0, 10_000) {
		t.Error("RDMA write did not move data")
	}
}

func TestSmallWriteLatencyRange(t *testing.T) {
	r := newRig(t)
	defer r.close()
	src := r.m0.Alloc(64)
	dst := r.m1.Alloc(64)
	src.Fill(1)
	var lat sim.Time
	r.eng.Go("bench", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, 64)
		ldst := r.h1.Reg().RegisterFree(dst, 0, 64)
		// Warm the context cache so we measure steady state, like the
		// paper's averaged iterations.
		r.qp0.PostSend(p, verbs.WR{ID: 0, Op: verbs.OpWrite, Local: lsrc, Len: 64, RemoteKey: ldst.Key})
		r.qp1.Placements().Get(p)
		start := p.Now()
		r.qp0.PostSend(p, verbs.WR{ID: 1, Op: verbs.OpWrite, Local: lsrc, Len: 64, RemoteKey: ldst.Key})
		r.qp1.Placements().Get(p)
		p.Sleep(r.h1.PollDetect())
		lat = p.Now() - start
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper: 4.53us one-way for small RDMA writes on Mellanox 4X.
	if lat < sim.Micros(3.4) || lat > sim.Micros(5.8) {
		t.Errorf("one-way 64B RDMA write latency = %v, want ~4.5us", lat)
	}
}

func TestSendRecv(t *testing.T) {
	r := newRig(t)
	defer r.close()
	src := r.m0.Alloc(50_000)
	dst := r.m1.Alloc(50_000)
	src.Fill(7)
	r.eng.Go("receiver", func(p *sim.Proc) {
		ldst := r.h1.Reg().RegisterFree(dst, 0, 50_000)
		r.qp1.PostRecv(p, verbs.WR{ID: 9, Op: verbs.OpRecv, Local: ldst})
		comp := r.qp1.RecvCQ().Poll(p)
		if comp.WRID != 9 || comp.Len != 50_000 {
			t.Errorf("recv completion = %+v", comp)
		}
	})
	r.eng.Go("sender", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		lsrc := r.h0.Reg().RegisterFree(src, 0, 50_000)
		r.qp0.PostSend(p, verbs.WR{ID: 10, Op: verbs.OpSend, Local: lsrc, Len: 50_000})
		comp := r.qp0.SendCQ().Poll(p)
		if comp.WRID != 10 {
			t.Errorf("send completion = %+v", comp)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(7, 0, 50_000) {
		t.Error("send/recv did not move data")
	}
}

func TestRDMARead(t *testing.T) {
	r := newRig(t)
	defer r.close()
	remote := r.m1.Alloc(8000)
	local := r.m0.Alloc(8000)
	remote.Fill(3)
	r.eng.Go("reader", func(p *sim.Proc) {
		lloc := r.h0.Reg().RegisterFree(local, 0, 8000)
		lrem := r.h1.Reg().RegisterFree(remote, 0, 8000)
		r.qp0.PostSend(p, verbs.WR{ID: 5, Op: verbs.OpRead, Local: lloc, Len: 8000, RemoteKey: lrem.Key})
		comp := r.qp0.SendCQ().Poll(p)
		if comp.Op != verbs.OpRead || comp.Len != 8000 {
			t.Errorf("read completion = %+v", comp)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !local.Equal(3, 0, 8000) {
		t.Error("RDMA read did not fetch data")
	}
}

func TestStreamingBandwidth(t *testing.T) {
	r := newRig(t)
	defer r.close()
	const msg = 1 << 20
	const count = 32
	src := r.m0.Alloc(msg)
	dst := r.m1.Alloc(msg)
	src.Fill(1)
	var start, end sim.Time
	r.eng.Go("bench", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, msg)
		ldst := r.h1.Reg().RegisterFree(dst, 0, msg)
		start = p.Now()
		for i := 0; i < count; i++ {
			r.qp0.PostSend(p, verbs.WR{ID: uint64(i), Op: verbs.OpWrite, Local: lsrc, Len: msg, RemoteKey: ldst.Key})
		}
		placed := 0
		for placed < count*msg {
			pl := r.qp1.Placements().Get(p)
			placed += pl.Len
		}
		end = p.Now()
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	bw := sim.MBpsOf(count*msg, end-start)
	// IB verbs saturate ~97% of the 1 GB/s 4X data rate (~970 MB/s).
	if bw < 930 || bw > 1000 {
		t.Errorf("streaming bandwidth = %.0f MB/s, want ~970", bw)
	}
}

func TestContextCacheLRU(t *testing.T) {
	c := newCtxCache(2)
	if !c.touch(0) || !c.touch(1) {
		t.Error("cold touches should miss")
	}
	if c.touch(0) {
		t.Error("warm touch missed")
	}
	if !c.touch(2) { // evicts 1 (LRU)
		t.Error("expected miss for 2")
	}
	if !c.touch(1) {
		t.Error("1 should have been evicted")
	}
	if c.touch(2) {
		t.Error("2 should still be cached")
	}
	if c.misses != 4 || c.hits != 2 {
		t.Errorf("misses=%d hits=%d", c.misses, c.hits)
	}
}

func TestManyConnectionsPayContextMisses(t *testing.T) {
	r := newRig(t)
	defer r.close()
	const nqp = 16 // twice the context cache size
	qps0 := make([]*QP, nqp)
	qps1 := make([]*QP, nqp)
	qps0[0], qps1[0] = r.qp0, r.qp1
	for i := 1; i < nqp; i++ {
		qps0[i], qps1[i] = Connect(r.h0, r.h1)
	}
	src := r.m0.Alloc(64)
	dst := r.m1.Alloc(64)
	src.Fill(1)
	r.eng.Go("bench", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, 64)
		ldst := r.h1.Reg().RegisterFree(dst, 0, 64)
		// Round-robin over all QPs several times: every message misses.
		for round := 0; round < 4; round++ {
			for i := 0; i < nqp; i++ {
				qps0[i].PostSend(p, verbs.WR{ID: uint64(i), Op: verbs.OpWrite, Local: lsrc, Len: 64, RemoteKey: ldst.Key})
				qps1[i].Placements().Get(p)
			}
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// With 16 QPs cycling through an 8-entry cache, essentially every
	// message reloads a context on the send side.
	if r.h0.CtxMisses() < int64(nqp*3) {
		t.Errorf("h0 context misses = %d, want >= %d", r.h0.CtxMisses(), nqp*3)
	}
}

func TestSerialEngineOrdersQPs(t *testing.T) {
	// Two QPs posting simultaneously share the capacity-1 send processor:
	// their wire departures must be spaced by at least TxPktTime.
	r := newRig(t)
	defer r.close()
	qpA0, qpA1 := r.qp0, r.qp1
	qpB0, qpB1 := Connect(r.h0, r.h1)
	src := r.m0.Alloc(64)
	dstA := r.m1.Alloc(64)
	dstB := r.m1.Alloc(64)
	src.Fill(1)
	var tA, tB sim.Time
	r.eng.Go("a", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, 64)
		ldst := r.h1.Reg().RegisterFree(dstA, 0, 64)
		qpA0.PostSend(p, verbs.WR{ID: 1, Op: verbs.OpWrite, Local: lsrc, Len: 64, RemoteKey: ldst.Key})
		qpA1.Placements().Get(p)
		tA = p.Now()
	})
	r.eng.Go("b", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, 64)
		ldst := r.h1.Reg().RegisterFree(dstB, 0, 64)
		qpB0.PostSend(p, verbs.WR{ID: 2, Op: verbs.OpWrite, Local: lsrc, Len: 64, RemoteKey: ldst.Key})
		qpB1.Placements().Get(p)
		tB = p.Now()
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	gap := tB - tA
	if gap < 0 {
		gap = -gap
	}
	if gap < r.h0.cfg.TxPktTime/2 {
		t.Errorf("concurrent QP completions %v apart; engine serialization missing", gap)
	}
}

func TestSendBeforeRecvPosted(t *testing.T) {
	r := newRig(t)
	defer r.close()
	src := r.m0.Alloc(256)
	dst := r.m1.Alloc(256)
	src.Fill(5)
	r.eng.Go("sender", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, 256)
		r.qp0.PostSend(p, verbs.WR{ID: 1, Op: verbs.OpSend, Local: lsrc, Len: 256})
	})
	r.eng.Go("receiver", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		ldst := r.h1.Reg().RegisterFree(dst, 0, 256)
		r.qp1.PostRecv(p, verbs.WR{ID: 2, Op: verbs.OpRecv, Local: ldst})
		comp := r.qp1.RecvCQ().Poll(p)
		if comp.Len != 256 {
			t.Errorf("completion = %+v", comp)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(5, 0, 256) {
		t.Error("early send lost data")
	}
}

// overwriteMidFlight waits until dst holds the first byte of a Fill(seed)
// message but not yet all of it, then overwrites the source buffer.
func overwriteMidFlight(t *testing.T, p *sim.Proc, src, dst *mem.Buffer, seed byte) {
	for !dst.Equal(seed, 0, 1) {
		p.Sleep(20 * sim.Nanosecond)
	}
	if dst.Equal(seed, 0, dst.Len()) {
		t.Error("message fully placed before the overwrite")
		return
	}
	src.Fill(seed + 1)
}

// TestSourceWriteAfterPostKeepsPostedBytes overwrites the source buffer
// after the NIC has taken the message and before the receiver has placed
// its last byte, for a Send (the eager path) and an RDMA Write (the
// rendezvous data path). The receiver must get the bytes as posted, and
// the overwrite must cost exactly one view freeze.
func TestSourceWriteAfterPostKeepsPostedBytes(t *testing.T) {
	const n = 100_000
	for _, op := range []verbs.Op{verbs.OpSend, verbs.OpWrite} {
		t.Run(op.String(), func(t *testing.T) {
			r := newRig(t)
			defer r.close()
			src, dst := r.m0.Alloc(n), r.m1.Alloc(n)
			src.Fill(42)
			lsrc := r.h0.Reg().RegisterFree(src, 0, n)
			ldst := r.h1.Reg().RegisterFree(dst, 0, n)
			r.eng.Go("receiver", func(p *sim.Proc) {
				if op == verbs.OpSend {
					r.qp1.PostRecv(p, verbs.WR{ID: 2, Op: verbs.OpRecv, Local: ldst})
				}
			})
			r.eng.Go("sender", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond) // the receive is posted first
				r.qp0.PostSend(p, verbs.WR{ID: 1, Op: op, Local: lsrc, Len: n, RemoteKey: ldst.Key})
				overwriteMidFlight(t, p, src, dst, 42)
				r.qp0.SendCQ().Poll(p)
			})
			if err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(42, 0, n) {
				t.Error("receiver saw a write made after the post")
			}
			if got := r.eng.Metrics().Counter("mem.view_freezes").Value(); got != 1 {
				t.Errorf("mem.view_freezes = %d, want 1", got)
			}
		})
	}
}
