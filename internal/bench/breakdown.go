package bench

import (
	"fmt"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The breakdown figure family answers the "where does the time go" question
// behind the paper's headline latency ordering (Section 5.1): it re-runs the
// ping-pong with causal tracing enabled, extracts the critical path of the
// timed operation (internal/causal), and attributes every picosecond of the
// measured window to host software, NIC engines, wire serialization,
// switch/trunk queueing or protocol stalls. The iWARP gap over IB and
// Myrinet shows up as host+NIC protocol time (per-WR overhead, TOE
// segmentation, MPA/DDP processing), not wire time; at bandwidth sizes every
// stack converges toward wire-dominated.

// BreakdownSizes is the message-size axis of the two-node decomposition.
var BreakdownSizes = []int{4, 256, 4 << 10, 64 << 10, 1 << 20}

// BreakdownLeafSpineSizes is the size axis of the 64-rank leaf-spine
// decomposition (the scaling worlds switch to rendezvous at 2KB).
var BreakdownLeafSpineSizes = []int{512, 8 << 10, 64 << 10}

// BreakdownLeafSpineRanks is the world size of the leaf-spine decomposition:
// 64 ranks across 8 leaves.
const BreakdownLeafSpineRanks = 64

// BreakdownLeafSpineRatio is the trunk oversubscription of the leaf-spine
// decomposition; 4:1 starves the trunks enough that switch queueing is
// visible in the attribution.
const BreakdownLeafSpineRatio = 4

// MPIBreakdown runs a traced two-node ping-pong at one message size and
// attributes the final timed round trip. The returned report's window is the
// full RTT measured at rank 0; its buckets sum to that window exactly.
func MPIBreakdown(kind cluster.Kind, size int) (*causal.Report, error) {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	tr := tb.Eng.StartTrace(0)
	const warmup = 2
	var op trace.Ref
	tb.Eng.Go("rank0", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(size, 1))
		buf.Fill(1)
		p.Barrier(pr)
		for i := 0; i < warmup; i++ {
			p.Send(pr, 1, 1, buf, 0, size)
			p.Recv(pr, 1, 2, buf, 0, size)
		}
		self := tr.NewRef()
		t0 := pr.Now()
		p.Send(pr, 1, 1, buf, 0, size)
		p.Recv(pr, 1, 2, buf, 0, size)
		tr.CompleteSelf("bench/rank0", "bench.rtt", self, int64(t0), int64(pr.Now()),
			trace.Cause(p.LastCallRef()), trace.I64("bytes", int64(size)))
		op = self
	})
	tb.Eng.Go("rank1", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(max(size, 1))
		buf.Fill(2)
		p.Barrier(pr)
		for i := 0; i < warmup+1; i++ {
			p.Recv(pr, 0, 1, buf, 0, size)
			p.Send(pr, 0, 2, buf, 0, size)
		}
	})
	mustRun(tb)
	d, err := causal.Build(tr.Events(), tr.DropStats())
	if err != nil {
		return nil, err
	}
	return d.Blame(op)
}

// MPIBreakdownLeafSpine runs a traced cross-leaf pairwise exchange on a
// leaf-spine world — every rank swaps a message with the rank half the world
// away, so all traffic crosses the oversubscribed trunks at once — and
// attributes rank 0's exchange. Switch/trunk queueing, invisible on the
// paper's single-switch testbed, appears as a distinct bucket here.
func MPIBreakdownLeafSpine(kind cluster.Kind, ranks, size, ratio int) (*causal.Report, error) {
	// Causal analysis reads one engine's trace, so the traced world runs on
	// one engine whatever -shards asks for; the shard count is an
	// execution hint, so the report is the same either way.
	tb, w, _ := scalingWorld(cluster.Options{}, kind, ranks, ScaleOpts{Topology: topoSpec(ratio)})
	defer tb.Close()
	tr := tb.Eng.StartTrace(0)
	var op trace.Ref
	for r := 0; r < ranks; r++ {
		r := r
		p := w.Rank(r)
		tb.Eng.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
			peer := (r + ranks/2) % ranks
			buf := p.Host().Mem.Alloc(max(2*size, 2))
			buf.Fill(byte(r))
			exchange := func() {
				rreq := p.Irecv(pr, peer, 7, buf, size, size)
				sreq := p.Isend(pr, peer, 7, buf, 0, size)
				rreq.Wait(pr)
				sreq.Wait(pr)
			}
			exchange() // warmup: wires the lazy pairs off the measured path
			p.Barrier(pr)
			if r == 0 {
				self := tr.NewRef()
				t0 := pr.Now()
				exchange()
				tr.CompleteSelf("bench/rank0", "bench.exchange", self, int64(t0), int64(pr.Now()),
					trace.Cause(p.LastCallRef()), trace.I64("bytes", int64(size)))
				op = self
			} else {
				exchange()
			}
		})
	}
	mustRun(tb)
	d, err := causal.Build(tr.Events(), tr.DropStats())
	if err != nil {
		return nil, err
	}
	return d.Blame(op)
}

// breakdownSeries renders one report per X point as bucket series plus a
// "total" series witnessing the sum invariant in the rendered tables.
func breakdownSeries(xs []float64, reports []*causal.Report) []Series {
	out := make([]Series, causal.NumBuckets+1)
	for b := causal.Bucket(0); b < causal.NumBuckets; b++ {
		out[b] = Series{Label: b.String()}
	}
	out[causal.NumBuckets] = Series{Label: "total"}
	for xi, rep := range reports {
		if rep == nil {
			continue
		}
		for b := causal.Bucket(0); b < causal.NumBuckets; b++ {
			out[b].Points = append(out[b].Points, Point{X: xs[xi], Y: sim.Time(rep.Buckets[b]).Micros()})
		}
		out[causal.NumBuckets].Points = append(out[causal.NumBuckets].Points, Point{X: xs[xi], Y: sim.Time(rep.Total()).Micros()})
	}
	return out
}

// BreakdownFigure builds the two-node round-trip decomposition of one stack
// across message sizes.
func BreakdownFigure(kind cluster.Kind, sizes []int) Figure {
	reports := make([]*causal.Report, len(sizes))
	forEachWorld(len(sizes), func(i int) {
		rep, err := MPIBreakdown(kind, sizes[i])
		if err != nil {
			panic(fmt.Sprintf("breakdown %s %dB: %v", kind, sizes[i], err))
		}
		reports[i] = rep
	})
	return Figure{
		ID:     "breakdown-" + kind.Slug(),
		Title:  fmt.Sprintf("%s ping-pong round-trip attribution (critical path)", kind),
		XLabel: "bytes",
		YLabel: "round-trip time attributed (us)",
		Series: breakdownSeries(floats(sizes), reports),
	}
}

// BreakdownLeafSpineFigure builds the 64-rank leaf-spine exchange
// decomposition of one stack.
func BreakdownLeafSpineFigure(kind cluster.Kind, sizes []int) Figure {
	reports := make([]*causal.Report, len(sizes))
	forEachWorld(len(sizes), func(i int) {
		rep, err := MPIBreakdownLeafSpine(kind, BreakdownLeafSpineRanks, sizes[i], BreakdownLeafSpineRatio)
		if err != nil {
			panic(fmt.Sprintf("leaf-spine breakdown %s %dB: %v", kind, sizes[i], err))
		}
		reports[i] = rep
	})
	return Figure{
		ID: "breakdown-leafspine-" + kind.Slug(),
		Title: fmt.Sprintf("%s cross-leaf exchange attribution (%d ranks, %d:1 leaf-spine)",
			kind, BreakdownLeafSpineRanks, BreakdownLeafSpineRatio),
		XLabel: "bytes",
		YLabel: "exchange time attributed (us)",
		Series: breakdownSeries(floats(sizes), reports),
	}
}
