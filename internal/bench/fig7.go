package bench

import (
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Fig7Depths is the unexpected-queue depth sweep.
var Fig7Depths = []int{0, 16, 64, 256, 1024}

// Fig7Sizes are the measured ping-pong message sizes of Figure 7.
var Fig7Sizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}

// unexpectedTag marks the preloaded messages; the measured ping-pong uses a
// different tag so every receive traverses the whole unexpected queue.
const (
	unexpectedTag = 7001
	measuredTag   = 7002
	drainTag      = 7003
)

// UnexpectedQueueLatency preloads `depth` small unexpected messages on both
// sides, synchronizes, and then measures a synchronous-send ping-pong at
// `size` (synchronous "to avoid any overlapping of queue processing with
// message communication time", per the paper).
func UnexpectedQueueLatency(kind cluster.Kind, size, depth, iters int) sim.Time {
	tb := cluster.New(kind, 2)
	defer tb.Close()
	w := mpi.NewWorld(tb, queueConfig(kind, depth))
	var lat sim.Time
	for r := 0; r < 2; r++ {
		r := r
		tb.Eng.Go("rank", func(pr *sim.Proc) {
			p := w.Rank(r)
			peer := 1 - r
			small := p.Host().Mem.Alloc(64)
			small.Fill(9)
			buf := p.Host().Mem.Alloc(max(size, 1))
			buf.Fill(byte(r))
			// Preload the peer's unexpected queue.
			for i := 0; i < depth; i++ {
				p.Send(pr, peer, unexpectedTag, small, 0, 64)
			}
			p.Barrier(pr)
			if r == 0 {
				start := p.Wtime(pr)
				for i := 0; i < iters; i++ {
					p.Ssend(pr, peer, measuredTag, buf, 0, size)
					p.Recv(pr, peer, measuredTag, buf, 0, size)
				}
				lat = (p.Wtime(pr) - start) / sim.Time(2*iters)
			} else {
				for i := 0; i < iters; i++ {
					p.Recv(pr, peer, measuredTag, buf, 0, size)
					p.Ssend(pr, peer, measuredTag, buf, 0, size)
				}
			}
			// Drain the preloaded messages so the run terminates cleanly.
			for i := 0; i < depth; i++ {
				p.Recv(pr, peer, unexpectedTag, small, 0, 64)
			}
		})
	}
	mustRun(tb)
	return lat
}

// queueConfig is the stack's MPI profile with enough eager credits for
// `depth` queued messages plus the measured traffic.
func queueConfig(kind cluster.Kind, depth int) mpi.Config {
	cfg := mpi.ConfigFor(kind)
	if cfg.EagerCredits > 0 && cfg.EagerCredits < depth+64 {
		cfg.EagerCredits = depth + 64
	}
	return cfg
}

// Fig7 reproduces Figure 7: ratio of loaded-queue latency over empty-queue
// latency as a function of the number of unexpected messages.
func Fig7(kind cluster.Kind, sizes, depths []int) Figure {
	return queueRatioFigure(Figure{
		ID:     "fig7-unexpected-" + kind.String(),
		Title:  "Unexpected message queue size effect (" + kind.String() + ")",
		XLabel: "unexpected messages",
		YLabel: "latency ratio (loaded / empty)",
	}, kind, sizes, depths, UnexpectedQueueLatency)
}

// queueRatioFigure fills fig with one series per message size over the
// queue depths: each point is kind's latency at that depth over the same
// size's empty-queue latency.
func queueRatioFigure(fig Figure, kind cluster.Kind, sizes, depths []int,
	latency func(kind cluster.Kind, size, depth, iters int) sim.Time) Figure {
	const iters = 12
	// Empty-queue baselines first (one world per size), then the loaded grid
	// normalized against them; both phases run on the worker pool.
	base := make([]sim.Time, len(sizes))
	forEachWorld(len(sizes), func(i int) {
		base[i] = latency(kind, sizes[i], 0, iters)
	})
	labels := make([]string, len(sizes))
	for i, size := range sizes {
		labels[i] = fmtX(float64(size))
	}
	fig.Series = gridSeries(labels, floats(depths), func(si, xi int) float64 {
		return float64(latency(kind, sizes[si], depths[xi], iters)) / float64(base[si])
	})
	return fig
}
