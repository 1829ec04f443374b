package bench

import (
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Fig8Depths is the posted-receive queue depth sweep.
var Fig8Depths = []int{0, 16, 64, 256, 1024}

// Fig8Sizes are the measured message sizes of Figure 8.
var Fig8Sizes = []int{16, 256, 1 << 10, 8 << 10, 32 << 10, 128 << 10}

// ReceiveQueueLatency pre-posts `depth` never-matching receives (tag1) on
// both sides, then measures a ping-pong with tag2: every arriving message
// traverses the whole posted queue before finding its match, per the
// paper's Section 6.5.2 algorithm.
func ReceiveQueueLatency(kind cluster.Kind, size, depth, iters int) sim.Time {
	tb := cluster.New(kind, 2)
	defer tb.Close()
	return receiveQueueLatencyOn(tb, mpi.NewWorld(tb, queueConfig(kind, depth)), size, depth, iters)
}

// receiveQueueLatencyOn is ReceiveQueueLatency on a caller-built (possibly
// ablated) two-rank world.
func receiveQueueLatencyOn(tb *cluster.Testbed, w *mpi.World, size, depth, iters int) sim.Time {
	var lat sim.Time
	for r := 0; r < 2; r++ {
		r := r
		tb.Eng.Go("rank", func(pr *sim.Proc) {
			p := w.Rank(r)
			peer := 1 - r
			junk := p.Host().Mem.Alloc(64)
			buf := p.Host().Mem.Alloc(max(size, 1))
			// Traversed calls: pre-posted receives that never match the
			// measured traffic.
			traversed := make([]*mpi.Request, depth)
			for i := range traversed {
				traversed[i] = p.Irecv(pr, peer, unexpectedTag, junk, 0, 64)
			}
			p.Barrier(pr)
			if r == 0 {
				start := p.Wtime(pr)
				for i := 0; i < iters; i++ {
					p.Send(pr, peer, measuredTag, buf, 0, size)
					p.Recv(pr, peer, measuredTag, buf, 0, size)
				}
				lat = (p.Wtime(pr) - start) / sim.Time(2*iters)
			} else {
				for i := 0; i < iters; i++ {
					p.Recv(pr, peer, measuredTag, buf, 0, size)
					p.Send(pr, peer, measuredTag, buf, 0, size)
				}
			}
			// Complete the traversed receives so the run terminates.
			for i := 0; i < depth; i++ {
				p.Send(pr, peer, unexpectedTag, junk, 0, 64)
			}
			p.WaitAll(pr, traversed)
		})
	}
	mustRun(tb)
	return lat
}

// Fig8 reproduces Figure 8: ratio of loaded receive-queue latency over
// empty-queue latency.
func Fig8(kind cluster.Kind, sizes, depths []int) Figure {
	return queueRatioFigure(Figure{
		ID:     "fig8-recvqueue-" + kind.String(),
		Title:  "Receive queue size effect (" + kind.String() + ")",
		XLabel: "pre-posted receives",
		YLabel: "latency ratio (loaded / empty)",
	}, kind, sizes, depths, ReceiveQueueLatency)
}
