package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The paper states that it also measured hotspot, computation/communication
// overlap and independent-progress behaviour but that "space does not allow
// including" the results (Section 6). This file implements those three
// experiments; the authors published the methodology a year later in
// "Assessing the Ability of Computation/Communication Overlap and
// Communication Progress in Modern Interconnects" (Hot Interconnects 2007),
// which these drivers follow.

// OverlapRatio measures how much of a compute phase inserted between Isend
// and Wait is hidden behind the transfer of an n-byte message. 1.0 = full
// overlap (total time unchanged by computing), 0.0 = none (compute adds
// fully to the transfer time).
//
// The mechanism under test: rendezvous on the call-driven MPICH stacks
// cannot make progress while the host computes (the CTS sits unhandled), so
// overlap collapses for large messages; MX's NIC-driven rendezvous keeps
// progressing.
func OverlapRatio(kind cluster.Kind, n int, iters int) float64 {
	// Baseline: transfer time with no computation.
	base := overlapRun(kind, n, 0, iters)
	// Compute phase comparable to the transfer time itself.
	compute := base
	total := overlapRun(kind, n, compute, iters)
	// total in [max(base, compute), base+compute].
	hidden := float64(base+compute-total) / float64(compute)
	if hidden < 0 {
		hidden = 0
	}
	if hidden > 1 {
		hidden = 1
	}
	return hidden
}

// overlapRun returns the average time of (Isend; compute; Wait; recv ack)
// at the sender.
func overlapRun(kind cluster.Kind, n int, compute sim.Time, iters int) sim.Time {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	var total sim.Time
	tb.Eng.Go("sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(n, 1))
		p.Barrier(pr)
		start := p.Wtime(pr)
		for i := 0; i < iters; i++ {
			req := p.Isend(pr, 1, 1, buf, 0, n)
			if compute > 0 {
				pr.Sleep(compute) // the compute phase: no MPI calls, no progress
			}
			req.Wait(pr)
			p.Recv(pr, 1, 2, buf, 0, 0) // ack: the receiver got it all
		}
		total = (p.Wtime(pr) - start) / sim.Time(iters)
	})
	tb.Eng.Go("receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(max(n, 1))
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			p.Recv(pr, 0, 1, buf, 0, n)
			p.Send(pr, 0, 2, buf, 0, 0)
		}
	})
	mustRun(tb)
	return total
}

// ProgressRatio measures independent progress: the sender starts a
// rendezvous-size transfer toward a receiver that pre-posted its receive
// and then computes (makes no MPI calls) for longer than the transfer
// should take. 1.0 = the message fully arrived during the compute phase
// (the stack progressed independently); 0.0 = nothing happened until the
// receiver re-entered MPI.
func ProgressRatio(kind cluster.Kind, n int, iters int) float64 {
	base := MPILatency(kind, n, iters) * 2 // generous transfer-time bound
	delay := 4 * base
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	var waitCost sim.Time
	tb.Eng.Go("receiver", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(n)
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			req := p.Irecv(pr, 0, 1, buf, 0, n)
			p.Send(pr, 0, 2, buf, 0, 0) // tell the sender the recv is posted
			pr.Sleep(delay)             // compute, no progress calls
			t0 := pr.Now()
			req.Wait(pr)
			waitCost += pr.Now() - t0
		}
	})
	tb.Eng.Go("sender", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(n)
		p.Barrier(pr)
		for i := 0; i < iters; i++ {
			p.Recv(pr, 1, 2, buf, 0, 0)
			p.Send(pr, 1, 1, buf, 0, n)
		}
	})
	mustRun(tb)
	avgWait := waitCost / sim.Time(iters)
	ratio := 1 - float64(avgWait)/float64(base)
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return ratio
}

// HotspotLatency runs the hotspot test: `senders` ranks ping one root
// concurrently; the result is the average per-message half round trip
// observed across senders, which grows as the root's NIC and MPI engine
// congest.
func HotspotLatency(kind cluster.Kind, senders, n, iters int) sim.Time {
	return hotspotLatency(kind, senders, n, iters, nil)
}

// hotspotLatency is HotspotLatency with a fault scenario applied to the
// built world, whose workload starts at t = 0 with the clause windows.
func hotspotLatency(kind cluster.Kind, senders, n, iters int, sc *faults.Scenario) sim.Time {
	tb := cluster.NewWithOptions(kind, senders+1, shardOpts())
	w := mpi.NewWorld(tb, mpi.ConfigFor(kind))
	defer tb.Close()
	tb.MustApplyFaults(sc)
	// Per-sender slots, not one shared accumulator: sender procs may run on
	// different shard engines, and the slot indexed by rank keeps the sum
	// below independent of execution interleaving.
	perSender := make([]sim.Time, senders+1)
	for r := 1; r <= senders; r++ {
		r := r
		p := w.Rank(r)
		tb.Go(r, fmt.Sprintf("sender%d", r), func(pr *sim.Proc) {
			buf := p.Host().Mem.Alloc(max(n, 1))
			p.Barrier(pr)
			start := p.Wtime(pr)
			for i := 0; i < iters; i++ {
				p.Send(pr, 0, r, buf, 0, n)
				p.Recv(pr, 0, r, buf, 0, n)
			}
			perSender[r] = (p.Wtime(pr) - start) / sim.Time(2*iters)
		})
	}
	tb.Go(0, "root", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(n, 1))
		p.Barrier(pr)
		for i := 0; i < senders*iters; i++ {
			st := p.Recv(pr, mpi.AnySource, mpi.AnyTag, buf, 0, n)
			p.Send(pr, st.Source, st.Tag, buf, 0, n)
		}
	})
	mustRun(tb)
	var total sim.Time
	for _, t := range perSender {
		total += t
	}
	return total / sim.Time(senders)
}

// AppxOverlap builds the overlap figure across stacks and sizes.
func AppxOverlap(sizes []int) Figure {
	fig := Figure{
		ID:     "appx-overlap",
		Title:  "Computation/communication overlap ability (unpublished appendix)",
		XLabel: "bytes",
		YLabel: "overlap ratio (1 = fully hidden)",
	}
	fig.Series = gridSeries(kindLabels(""), floats(sizes), func(si, xi int) float64 {
		return OverlapRatio(cluster.Kinds[si], sizes[xi], 6)
	})
	return fig
}

// AppxProgress builds the independent-progress figure.
func AppxProgress(sizes []int) Figure {
	fig := Figure{
		ID:     "appx-progress",
		Title:  "Independent progress (unpublished appendix)",
		XLabel: "bytes",
		YLabel: "progress ratio (1 = transfer completed during compute)",
	}
	fig.Series = gridSeries(kindLabels(""), floats(sizes), func(si, xi int) float64 {
		return ProgressRatio(cluster.Kinds[si], sizes[xi], 4)
	})
	return fig
}

// AppxHotspot builds the hotspot figure on the 4-node testbed (3 senders,
// the maximum the paper's cluster allows).
func AppxHotspot(sizes []int) Figure {
	fig := Figure{
		ID:     "appx-hotspot",
		Title:  "Hotspot: 3 senders ping one root (unpublished appendix)",
		XLabel: "bytes",
		YLabel: "average per-sender latency (us)",
	}
	fig.Series = gridSeries(kindLabels(""), floats(sizes), func(si, xi int) float64 {
		return HotspotLatency(cluster.Kinds[si], 3, sizes[xi], 8).Micros()
	})
	return fig
}
