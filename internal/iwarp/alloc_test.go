package iwarp

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/verbs"
)

// streamWrites streams msgs back-to-back 1 MiB RDMA Writes over a fresh
// rig and returns the heap allocations the whole run made (rig included)
// and the frames it put on the wire, ACKs included. The Placements log is
// off: this measures the wire path, not a reader's queue.
func streamWrites(t *testing.T, msgs int) (mallocs uint64, frames int64) {
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
		lsrc := r.n0.Reg().RegisterFree(src, 0, size)
		ldst := r.n1.Reg().RegisterFree(dst, 0, size)
		for i := 0; i < msgs; i++ {
			r.qp0.PostSend(p, verbs.WR{ID: uint64(i), Op: verbs.OpWrite, Local: lsrc, Len: size, RemoteKey: ldst.Key})
			r.qp0.SendCQ().Poll(p)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	frames = r.eng.Metrics().Counter("fabric.frames_sent").Value()
	r.close()
	runtime.ReadMemStats(&after)
	if !dst.Equal(7, 0, size) {
		t.Fatal("RDMA writes did not move the data")
	}
	return after.Mallocs - before.Mallocs, frames
}

// TestWirePathAllocBudget bounds the heap allocations per frame of a
// streaming RDMA Write: the difference between a 10-message and a
// 2-message run, over the difference in fabric.frames_sent, so world
// set-up and per-message costs cancel or amortize away. Before frames rode
// in the fabric's hops and the rx steps came from free lists, every frame
// allocated the frame and its boxed payload, and every data segment its
// pipeline and placement closures: 7.0 per frame. What remains, about 3.0,
// is the DDP segment, which TCP keeps for retransmission, and tcpsim's
// per-record bookkeeping: send and receive records, each segment's piece
// list and the list of records it completes.
func TestWirePathAllocBudget(t *testing.T) {
	m2, f2 := streamWrites(t, 2)
	m10, f10 := streamWrites(t, 10)
	per := float64(m10-m2) / float64(f10-f2)
	t.Logf("%.3f mallocs per frame (%d frames)", per, f10-f2)
	if per > 3.5 {
		t.Errorf("%.3f mallocs per frame, budget 3.5", per)
	}
}
