package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// This file is the degraded-mode driver family (cmd/figures -only faults):
// the paper's headline experiments re-run under the fault scenarios of
// internal/faults. The paper measured a pristine switch; these drivers ask
// what each stack's numbers look like once the network misbehaves — frame
// loss eating into Fig. 1 latency and Fig. 4 bandwidth, link flaps whose
// recovery cost differs by stack (lossless fabrics pause, Ethernet drops
// and re-earns the stream through TCP), and an incast/hotspot experiment
// with cross-traffic congesting the root's egress port.

// The degraded-mode drivers apply their scenarios explicitly to the testbed
// they build (tb.MustApplyFaults right after cluster.New, i.e. at the same
// point the cluster.OnNew hook fires) instead of mutating the global hook:
// a process-wide hook swap would leak one cell's scenario into whichever
// unrelated worlds the worker pool has in flight.

// faultedUserLatency is the Fig. 1 iWARP user-level ping-pong on a testbed
// degraded by sc (nil = clean).
func faultedUserLatency(size, iters int, sc *faults.Scenario) sim.Time {
	tb := cluster.NewWithOptions(cluster.IWARP, 2, shardOpts())
	defer tb.Close()
	tb.MustApplyFaults(sc)
	return VerbsUserLatencyOn(tb, size, iters)
}

// faultedUniBandwidth is the Fig. 4 unidirectional MPI bandwidth test on a
// degraded iWARP world. The scenario attaches before the MPI world builds
// its QP mesh, exactly where the old cluster.OnNew hook applied it.
func faultedUniBandwidth(size, iters int, sc *faults.Scenario) float64 {
	tb := cluster.NewWithOptions(cluster.IWARP, 2, shardOpts())
	tb.MustApplyFaults(sc)
	w := mpi.NewWorld(tb, mpi.ConfigFor(cluster.IWARP))
	return uniBandwidthOn(tb, w, size, iters)
}

// lossScenario builds the uniform-loss scenario for one sweep point; rate 0
// means a clean run (nil scenario).
func lossScenario(seed uint64, rate float64) *faults.Scenario {
	if rate == 0 {
		return nil
	}
	return faults.New(seed).Add(faults.Loss(rate))
}

// FaultsFig1Latency re-runs the Fig. 1 iWARP user-level ping-pong under a
// sweep of frame-loss rates. Only the Ethernet/TCP stack faces loss (the IB
// and Myrinet fabrics are link-level lossless), so the series contrast a
// small and a large message on iWARP: the small message shows the RTO
// floor, the large one shows go-back-N amplification.
func FaultsFig1Latency(rates []float64) Figure {
	fig := Figure{
		ID:     "faults-fig1-latency",
		Title:  "Fig. 1 latency under swept frame loss (iWARP over lossy 10GigE)",
		XLabel: "loss %",
		YLabel: "one-way latency (us)",
	}
	sizes := []int{4, 64 << 10}
	labels := make([]string, len(sizes))
	xs := make([]float64, len(rates))
	for i, size := range sizes {
		labels[i] = fmt.Sprintf("iWARP %sB", fmtX(float64(size)))
	}
	for i, rate := range rates {
		xs[i] = rate * 100
	}
	fig.Series = gridSeries(labels, xs, func(si, xi int) float64 {
		size := sizes[si]
		sc := lossScenario(uint64(9100+xi), rates[xi])
		return faultedUserLatency(size, itersFor(size), sc).Micros()
	})
	return fig
}

// FaultsFig4Bandwidth re-runs the Fig. 4 unidirectional MPI bandwidth test
// (1 MB messages) on iWARP under the same loss sweep. Bandwidth degrades
// far faster than the loss rate itself: every lost frame costs a go-back-N
// rewind of up to a full TCP window.
func FaultsFig4Bandwidth(rates []float64) Figure {
	fig := Figure{
		ID:     "faults-fig4-bandwidth",
		Title:  "Fig. 4 unidirectional MPI bandwidth under swept frame loss (iWARP, 1MB)",
		XLabel: "loss %",
		YLabel: "bandwidth (MB/s)",
	}
	xs := make([]float64, len(rates))
	for i, rate := range rates {
		xs[i] = rate * 100
	}
	fig.Series = gridSeries([]string{"MPI/iWARP 1MB"}, xs, func(_, xi int) float64 {
		return faultedUniBandwidth(1<<20, 2, lossScenario(uint64(9400+xi), rates[xi]))
	})
	return fig
}

// flapStart leaves the stream a little time to get flowing before the link
// goes down, so every flap hits mid-transfer.
const flapStart = 50 * sim.Microsecond

// FaultsFlapRecovery measures per-network link-flap recovery: a fixed
// message stream runs once clean and once with host 1's link down for a
// window of the given length; the Y value is the added elapsed time. The
// lossless fabrics (IB, both Myrinet flavours) backpressure during the
// outage, so their penalty tracks the flap length; Ethernet loses the
// frames in flight and pays the TCP retransmission timeout on top, so
// iWARP's recovery cost is dominated by the (backed-off) RTO rather than
// the outage itself.
func FaultsFlapRecovery(durations []sim.Time) Figure {
	fig := Figure{
		ID:     "faults-flap-recovery",
		Title:  "Link-flap recovery cost per network (32 x 64KB MPI stream, flap at 50us)",
		XLabel: "flap (us)",
		YLabel: "added elapsed time (us)",
	}
	const msgs, size = 32, 64 << 10
	// Each kind needs one clean run plus one run per flap length; flatten
	// the whole (kind, clean|duration) grid into pool cells and take the
	// clean-run differences during assembly.
	cols := 1 + len(durations)
	elapsed := make([]sim.Time, len(cluster.Kinds)*cols)
	forEachWorld(len(elapsed), func(i int) {
		kind := cluster.Kinds[i/cols]
		j := i % cols
		if j == 0 {
			elapsed[i] = streamElapsed(kind, msgs, size, nil)
			return
		}
		d := durations[j-1]
		cl := faults.Flap(1, flapStart, flapStart+d)
		if kind == cluster.IWARP {
			// Ethernet link flap: frames in the window are lost, the
			// offloaded TCP re-earns the stream.
			cl = faults.FlapDrop(1, flapStart, flapStart+d)
		}
		elapsed[i] = streamElapsed(kind, msgs, size, faults.New(uint64(9700+j-1)).Add(cl))
	})
	for ki, kind := range cluster.Kinds {
		s := Series{Label: kind.String()}
		clean := elapsed[ki*cols]
		for i, d := range durations {
			faulted := elapsed[ki*cols+1+i]
			s.Points = append(s.Points, Point{X: d.Micros(), Y: (faulted - clean).Micros()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// streamElapsed streams msgs blocking size-byte MPI sends from rank 0 to
// rank 1 plus a final zero-byte ack and returns the sender's elapsed time.
// The scenario (which may be nil) is applied to the built world, whose
// setup takes no virtual time, so flap timestamps mean "into the stream".
func streamElapsed(kind cluster.Kind, msgs, size int, sc *faults.Scenario) sim.Time {
	tb := cluster.NewWithOptions(kind, 2, shardOpts())
	w := mpi.NewWorld(tb, mpi.ConfigFor(kind))
	defer tb.Close()
	tb.MustApplyFaults(sc)
	var elapsed sim.Time
	tb.Go(0, "sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(size)
		p.Barrier(pr)
		start := p.Wtime(pr)
		for i := 0; i < msgs; i++ {
			p.Send(pr, 1, 1, buf, 0, size)
		}
		p.Recv(pr, 1, 2, buf, 0, 0)
		elapsed = p.Wtime(pr) - start
	})
	tb.Go(1, "receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(size)
		p.Barrier(pr)
		for i := 0; i < msgs; i++ {
			p.Recv(pr, 0, 1, buf, 0, size)
		}
		p.Send(pr, 0, 2, buf, 0, 0)
	})
	mustRun(tb)
	return elapsed
}

// incastWindow comfortably covers the whole hotspot run, so the congestion
// never lifts mid-measurement; incastIntensity is the fraction of each
// congestion period the cross-traffic occupies on the root's egress link.
const (
	incastWindow    = 50 * sim.Millisecond
	incastIntensity = 0.9
)

// FaultsIncast runs the appendix hotspot experiment (3 senders ping one
// root) with cross-traffic occupying 90% of the switch egress link toward
// the root — the classic incast aggravation. Y is the congested/clean
// latency ratio per stack: how much of the hotspot penalty each stack's
// flow control turns into added latency.
func FaultsIncast(sizes []int) Figure {
	fig := Figure{
		ID:     "faults-incast",
		Title:  "Incast: hotspot latency with 90% cross-traffic on the root's egress port",
		XLabel: "bytes",
		YLabel: "congested / clean latency ratio",
	}
	fig.Series = gridSeries(kindLabels(""), floats(sizes), func(si, xi int) float64 {
		kind, n := cluster.Kinds[si], sizes[xi]
		iters := max(itersFor(n)/4, 2)
		clean := hotspotLatency(kind, 3, n, iters, nil)
		sc := faults.New(uint64(9900 + xi)).Add(faults.Congest(0, incastIntensity).Between(0, incastWindow))
		congested := hotspotLatency(kind, 3, n, iters, sc)
		return float64(congested) / float64(clean)
	})
	return fig
}
