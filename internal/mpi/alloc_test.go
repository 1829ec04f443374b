package mpi

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// eagerPingPongAllocBytes returns the host bytes allocated to build one
// 2-rank IB world and run a 1 KB eager ping-pong on it (the shape of the
// Figure 3 latency points).
func eagerPingPongAllocBytes(t *testing.T) uint64 {
	const size, iters = 1024, 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb, w := DefaultWorld(cluster.IB, 2)
	for r := 0; r < 2; r++ {
		p, peer := w.Rank(r), 1-r
		tb.Eng.Go("rank", func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(size)
			buf.Fill(byte(r))
			for i := 0; i < iters; i++ {
				if p.Rank() == 0 {
					p.Send(pr, peer, 1, buf, 0, size)
					p.Recv(pr, peer, 1, buf, 0, size)
				} else {
					p.Recv(pr, peer, 1, buf, 0, size)
					p.Send(pr, peer, 1, buf, 0, size)
				}
			}
		})
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEagerPingPongAllocationBudget keeps the eager bounce rings from
// going back to being zeroed up front. Every world preposts peers x
// EagerCredits x 2 rings of hdr + EagerThreshold bytes, and a ping-pong
// writes only a few of them. Before buffers were backed by their written
// prefix only, this world allocated seedBytes (runtime.ReadMemStats,
// go1.24 on linux/amd64); with prefix backing it allocates about 1.0 MB.
func TestEagerPingPongAllocationBudget(t *testing.T) {
	const seedBytes = 10_662_968
	if got := eagerPingPongAllocBytes(t); got >= seedBytes/2 {
		t.Errorf("eager ping-pong world allocated %d bytes, budget is half of %d", got, seedBytes)
	}
}

// TestVerbsWorldsKeepNoPlacementLog runs a rendezvous ping-pong, whose
// payload lands by RDMA Write, and checks that no QP of the world logged a
// tagged placement: MPI never reads the Placements log, so a log left on
// would hold every placement until the world closes.
func TestVerbsWorldsKeepNoPlacementLog(t *testing.T) {
	const size, iters = 256 << 10, 4
	for _, kind := range []cluster.Kind{cluster.IB, cluster.IWARP} {
		tb, w := DefaultWorld(kind, 2)
		for r := 0; r < 2; r++ {
			p, peer := w.Rank(r), 1-r
			tb.Eng.Go("rank", func(pr *sim.Proc) {
				buf := p.Host().Mem.Alloc(size)
				for i := 0; i < iters; i++ {
					if p.Rank() == 0 {
						p.Send(pr, peer, 1, buf, 0, size)
						p.Recv(pr, peer, 1, buf, 0, size)
					} else {
						p.Recv(pr, peer, 1, buf, 0, size)
						p.Send(pr, peer, 1, buf, 0, size)
					}
				}
			})
		}
		if err := tb.Run(); err != nil {
			t.Fatal(err)
		}
		if n := tb.Eng.Metrics().Counter("mpi.rndv_sends").Value(); n == 0 {
			t.Fatalf("%v: no rendezvous sends; the test moves no tagged data", kind)
		}
		for r := 0; r < 2; r++ {
			vb := w.Rank(r).vb
			for _, qp := range []verbs.QP{vb.qps[1-r], vb.dataQPs[1-r]} {
				if n := qp.Placements().Puts(); n != 0 {
					t.Errorf("%v rank %d: QP %d logged %d placements", kind, r, qp.QPN(), n)
				}
			}
		}
		tb.Close()
	}
}
