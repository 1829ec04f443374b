package ib

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/verbs"
)

// streamWrites streams msgs back-to-back 1 MiB RDMA Writes over a fresh
// rig and returns the heap allocations the whole run made (rig included)
// and the packets it sent. The Placements log is off: this measures the
// wire path, not a reader's queue.
func streamWrites(t *testing.T, msgs int) (mallocs uint64, pkts int64) {
	t.Helper()
	const size = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := newRig(t)
	r.qp1.SetPlacementLog(false)
	src := r.m0.Alloc(size)
	dst := r.m1.Alloc(size)
	src.Fill(7)
	r.eng.Go("writer", func(p *sim.Proc) {
		lsrc := r.h0.Reg().RegisterFree(src, 0, size)
		ldst := r.h1.Reg().RegisterFree(dst, 0, size)
		for i := 0; i < msgs; i++ {
			r.qp0.PostSend(p, verbs.WR{ID: uint64(i), Op: verbs.OpWrite, Local: lsrc, Len: size, RemoteKey: ldst.Key})
			r.qp0.SendCQ().Poll(p)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	pkts = r.eng.Metrics().Counter("ib.pkts_tx").Value()
	r.close()
	runtime.ReadMemStats(&after)
	if !dst.Equal(7, 0, size) {
		t.Fatal("RDMA writes did not move the data")
	}
	return after.Mallocs - before.Mallocs, pkts
}

// TestWirePathAllocBudget bounds the heap allocations per packet of a
// streaming RDMA Write: the difference between a 10-message and a
// 2-message run, over the difference in ib.pkts_tx, so world set-up and
// per-message costs cancel or amortize away. Before frames rode in the
// fabric's hops and packets came from free lists, every packet allocated a
// frame, a packet and its placement and credit closures: 3.0 per packet.
func TestWirePathAllocBudget(t *testing.T) {
	m2, p2 := streamWrites(t, 2)
	m10, p10 := streamWrites(t, 10)
	per := float64(m10-m2) / float64(p10-p2)
	t.Logf("%.3f mallocs per packet (%d packets)", per, p10-p2)
	if per > 0.5 {
		t.Errorf("%.3f mallocs per packet, budget 0.5", per)
	}
}
