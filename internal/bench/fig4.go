package bench

import (
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// BandwidthMode selects one of Figure 4's three communication patterns.
type BandwidthMode int

// The paper's three MPI bandwidth tests.
const (
	Unidirectional BandwidthMode = iota
	Bidirectional
	BothWay
)

// String names the mode as in the figure captions.
func (m BandwidthMode) String() string {
	switch m {
	case Unidirectional:
		return "unidirectional"
	case Bidirectional:
		return "bidirectional"
	case BothWay:
		return "both-way"
	}
	return "unknown"
}

// ParseMode resolves a mode's command-line name: uni, bidi or bothway.
func ParseMode(s string) (BandwidthMode, bool) {
	m, ok := map[string]BandwidthMode{"uni": Unidirectional, "bidi": Bidirectional, "bothway": BothWay}[s]
	return m, ok
}

// fig4Window is the non-blocking window depth of the unidirectional and
// both-way tests.
const fig4Window = 16

// MPIBandwidth measures one mode of Figure 4 at one message size and
// returns MB/s.
func MPIBandwidth(kind cluster.Kind, mode BandwidthMode, size, iters int) float64 {
	switch mode {
	case Unidirectional:
		return uniBandwidth(kind, size, iters)
	case Bidirectional:
		// A blocking ping-pong moves 2 x size per round trip; the paper
		// reports the aggregate of both directions against the half round
		// trip (its bidirectional peaks are ~2x the unidirectional ones).
		lat := MPILatency(kind, size, iters)
		return 2 * sim.MBpsOf(int64(size), lat)
	case BothWay:
		return bothWayBandwidth(kind, size, iters)
	}
	panic("bench: bad bandwidth mode")
}

// uniBandwidth: the sender repeatedly transmits windows of non-blocking
// messages, waits for the window, and finally for an acknowledgment.
func uniBandwidth(kind cluster.Kind, size, iters int) float64 {
	tb, w := mpi.DefaultWorld(kind, 2)
	return uniBandwidthOn(tb, w, size, iters)
}

// uniBandwidthOn is uniBandwidth on a caller-built (possibly faulted)
// two-rank world, which it closes.
func uniBandwidthOn(tb *cluster.Testbed, w *mpi.World, size, iters int) float64 {
	defer tb.Close()
	var elapsed sim.Time
	tb.Go(0, "sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(size)
		reqs := make([]*mpi.Request, fig4Window)
		window := func() {
			for i := range reqs {
				reqs[i] = p.Isend(pr, 1, 1, buf, 0, size)
			}
			p.WaitAll(pr, reqs)
		}
		window() // warmup: first-use registrations off the measured path
		p.Barrier(pr)
		start := p.Wtime(pr)
		for it := 0; it < iters; it++ {
			window()
		}
		p.Recv(pr, 1, 2, buf, 0, 0) // final ack
		elapsed = p.Wtime(pr) - start
	})
	tb.Go(1, "receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(size)
		reqs := make([]*mpi.Request, fig4Window)
		window := func() {
			for i := range reqs {
				reqs[i] = p.Irecv(pr, 0, 1, buf, 0, size)
			}
			p.WaitAll(pr, reqs)
		}
		window()
		p.Barrier(pr)
		for it := 0; it < iters; it++ {
			window()
		}
		p.Send(pr, 0, 2, buf, 0, 0)
	})
	mustRun(tb)
	return sim.MBpsOf(int64(size)*int64(iters*fig4Window), elapsed)
}

// bothWayBandwidth: both sides post a window of non-blocking sends followed
// by a window of non-blocking receives, putting maximum pressure on the
// communication and I/O subsystems.
func bothWayBandwidth(kind cluster.Kind, size, iters int) float64 {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	var elapsed [2]sim.Time
	for r := 0; r < 2; r++ {
		r := r
		tb.Eng.Go("rank", func(pr *sim.Proc) {
			p := w.Rank(r)
			peer := 1 - r
			sbuf := p.Host().Mem.Alloc(size)
			rbuf := p.Host().Mem.Alloc(size)
			sends := make([]*mpi.Request, fig4Window)
			recvs := make([]*mpi.Request, fig4Window)
			window := func() {
				for i := range sends {
					sends[i] = p.Isend(pr, peer, 1, sbuf, 0, size)
				}
				for i := range recvs {
					recvs[i] = p.Irecv(pr, peer, 1, rbuf, 0, size)
				}
				p.WaitAll(pr, sends)
				p.WaitAll(pr, recvs)
			}
			window() // warmup: registrations off the measured path
			p.Barrier(pr)
			start := p.Wtime(pr)
			for it := 0; it < iters; it++ {
				window()
			}
			elapsed[r] = p.Wtime(pr) - start
		})
	}
	mustRun(tb)
	total := 2 * int64(size) * int64(iters*fig4Window)
	worst := elapsed[0]
	if elapsed[1] > worst {
		worst = elapsed[1]
	}
	return sim.MBpsOf(total, worst)
}

// Fig4 reproduces one panel of Figure 4 (MPI bandwidth in one mode) across
// all four stacks.
func Fig4(mode BandwidthMode, sizes []int) Figure {
	fig := Figure{
		ID:     "fig4-" + mode.String(),
		Title:  "MPI inter-node " + mode.String() + " bandwidth",
		XLabel: "bytes",
		YLabel: "bandwidth (MB/s)",
	}
	fig.Series = gridSeries(kindLabels("MPI/"), floats(sizes), func(si, xi int) float64 {
		size := sizes[xi]
		return MPIBandwidth(cluster.Kinds[si], mode, size, max(itersFor(size)/4, 2))
	})
	return fig
}
