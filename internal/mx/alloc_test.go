package mx

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// streamRndv streams msgs back-to-back 1 MiB rendezvous sends over a fresh
// rig, each matched by a posted receive, and returns the heap allocations
// the whole run made (rig included) and the frames it put on the wire.
func streamRndv(t *testing.T, msgs int) (mallocs uint64, frames int64) {
	t.Helper()
	const size = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := newRig(t)
	src := r.m0.Alloc(size)
	dst := r.m1.Alloc(size)
	src.Fill(7)
	r.eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.e1.Irecv(p, 1, ^uint64(0), dst, 0, size).Wait(p)
		}
	})
	r.eng.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.e0.Isend(p, r.e1, 1, src, 0, size).Wait(p)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	frames = r.eng.Metrics().Counter("fabric.frames_sent").Value()
	r.close()
	runtime.ReadMemStats(&after)
	if !dst.Equal(7, 0, size) {
		t.Fatal("rendezvous sends did not move the data")
	}
	return after.Mallocs - before.Mallocs, frames
}

// TestWirePathAllocBudget bounds the heap allocations per frame of a
// streaming rendezvous: the difference between a 10-message and a
// 2-message run, over the difference in fabric.frames_sent, so world
// set-up and per-message costs cancel or amortize away. Before frames rode
// in the fabric's hops and packets came from free lists, every data frame
// allocated the frame, the packet and its placement closure: 3.2 per
// frame.
func TestWirePathAllocBudget(t *testing.T) {
	m2, f2 := streamRndv(t, 2)
	m10, f10 := streamRndv(t, 10)
	per := float64(m10-m2) / float64(f10-f2)
	t.Logf("%.3f mallocs per frame (%d frames)", per, f10-f2)
	if per > 0.5 {
		t.Errorf("%.3f mallocs per frame, budget 0.5", per)
	}
}
