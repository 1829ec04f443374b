package bench

import (
	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// fig6Buffers is the number of distinct message buffers in the no-re-use
// pattern, per the paper ("we statically allocate 64 separate memory
// buffers").
const fig6Buffers = 64

// BufferReuseLatency runs the ping-pong of Section 6.4 with `nbufs` message
// buffers per side (1 = full re-use, 64 = no re-use) and returns the
// average one-way latency.
func BufferReuseLatency(kind cluster.Kind, size, nbufs, iters int) sim.Time {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	return bufferReuseLatencyOn(tb, w, size, nbufs, iters)
}

// bufferReuseLatencyOn is BufferReuseLatency on a caller-built (possibly
// ablated) two-rank world.
func bufferReuseLatencyOn(tb *cluster.Testbed, w *mpi.World, size, nbufs, iters int) sim.Time {
	var lat sim.Time
	alloc := func(p *mpi.Process) []*mem.Buffer {
		bufs := make([]*mem.Buffer, nbufs)
		for i := range bufs {
			bufs[i] = p.Host().Mem.Alloc(size)
		}
		return bufs
	}
	tb.Eng.Go("rank0", func(pr *sim.Proc) {
		p := w.Rank(0)
		bufs := alloc(p)
		p.Barrier(pr)
		start := p.Wtime(pr)
		for i := 0; i < iters; i++ {
			b := bufs[i%nbufs]
			p.Send(pr, 1, 1, b, 0, size)
			p.Recv(pr, 1, 2, b, 0, size)
		}
		lat = (p.Wtime(pr) - start) / sim.Time(2*iters)
	})
	tb.Eng.Go("rank1", func(pr *sim.Proc) {
		p := w.Rank(1)
		bufs := alloc(p)
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			b := bufs[i%nbufs]
			p.Recv(pr, 0, 1, b, 0, size)
			p.Send(pr, 0, 2, b, 0, size)
		}
	})
	mustRun(tb)
	return lat
}

// BufferReuseRatio returns no-re-use latency / full-re-use latency.
func BufferReuseRatio(kind cluster.Kind, size int) float64 {
	return bufferReuseRatio(size, func() (*cluster.Testbed, *mpi.World) { return mpi.DefaultWorld(kind, 2) })
}

// bufferReuseRatio is BufferReuseRatio over worlds from newWorld, one per
// re-use pattern.
func bufferReuseRatio(size int, newWorld func() (*cluster.Testbed, *mpi.World)) float64 {
	iters := 2 * fig6Buffers // every buffer used at least twice
	lat := func(nbufs int) sim.Time {
		tb, w := newWorld()
		defer tb.Close()
		return bufferReuseLatencyOn(tb, w, size, nbufs, iters)
	}
	full := lat(1)
	none := lat(fig6Buffers)
	return float64(none) / float64(full)
}

// noRegCacheWorld is the default MXoM world with the MX registration cache
// disabled on every host.
func noRegCacheWorld() (*cluster.Testbed, *mpi.World) {
	tb, w := mpi.DefaultWorld(cluster.MXoM, 2)
	for _, h := range tb.Hosts {
		h.MX.RegCache().Enabled = false
	}
	return tb, w
}

// Fig6 reproduces Figure 6: the effect of the buffer re-use pattern on
// ping-pong latency.
func Fig6(sizes []int) Figure {
	fig := Figure{
		ID:     "fig6-buffer-reuse",
		Title:  "Buffer re-use effect on latency",
		XLabel: "bytes",
		YLabel: "ratio of no re-use to full re-use latency",
	}
	fig.Series = gridSeries(kindLabels("MPI/"), floats(sizes), func(si, xi int) float64 {
		return BufferReuseRatio(cluster.Kinds[si], sizes[xi])
	})
	return fig
}

// Fig6NoRegCache repeats the Myrinet measurement with the MX registration
// cache disabled — the paper's own ablation ("when we disable the Myrinet
// registration cache, the effect of buffer re-use decreases").
func Fig6NoRegCache(sizes []int) Figure {
	fig := Figure{
		ID:     "fig6-mx-no-regcache",
		Title:  "Buffer re-use effect with the MX registration cache disabled",
		XLabel: "bytes",
		YLabel: "ratio of no re-use to full re-use latency",
	}
	fig.Series = gridSeries([]string{"MPI/MXoM (no reg cache)"}, floats(sizes), func(_, xi int) float64 {
		return bufferReuseRatio(sizes[xi], noRegCacheWorld)
	})
	return fig
}
