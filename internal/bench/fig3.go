package bench

import (
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// MPILatency measures the standard MPI inter-node ping-pong latency
// (half round trip) at one message size.
func MPILatency(kind cluster.Kind, size, iters int) sim.Time {
	tb, w := mpi.DefaultWorld(kind, 2)
	defer tb.Close()
	return mpiLatencyOn(tb, w, size, iters)
}

// mpiLatencyOn is MPILatency on a caller-built (possibly ablated) two-rank
// world.
func mpiLatencyOn(tb *cluster.Testbed, w *mpi.World, size, iters int) sim.Time {
	const warmup = 2
	var lat sim.Time
	tb.Eng.Go("rank0", func(pr *sim.Proc) {
		p := w.Rank(0)
		buf := p.Host().Mem.Alloc(max(size, 1))
		p.Barrier(pr)
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				lat = -p.Wtime(pr)
			}
			p.Send(pr, 1, 1, buf, 0, size)
			p.Recv(pr, 1, 2, buf, 0, size)
		}
		lat += p.Wtime(pr)
	})
	tb.Eng.Go("rank1", func(pr *sim.Proc) {
		p := w.Rank(1)
		buf := p.Host().Mem.Alloc(max(size, 1))
		p.Barrier(pr)
		for i := 0; i < warmup+iters; i++ {
			p.Recv(pr, 0, 1, buf, 0, size)
			p.Send(pr, 0, 2, buf, 0, size)
		}
	})
	mustRun(tb)
	return lat / sim.Time(2*iters)
}

// Fig3Latency reproduces the MPI ping-pong latency panel of Figure 3.
func Fig3Latency(sizes []int) Figure {
	fig := Figure{
		ID:     "fig3-latency",
		Title:  "MPI inter-node latency",
		XLabel: "bytes",
		YLabel: "one-way latency (us)",
	}
	fig.Series = gridSeries(kindLabels("MPI/"), floats(sizes), func(si, xi int) float64 {
		return MPILatency(cluster.Kinds[si], sizes[xi], itersFor(sizes[xi])).Micros()
	})
	return fig
}

// Fig3Overhead reproduces the MPI-over-user-level overhead panel of
// Figure 3: (MPI latency - user-level latency) / user-level latency, in
// percent.
func Fig3Overhead(sizes []int) Figure {
	fig := Figure{
		ID:     "fig3-overhead",
		Title:  "MPI latency overhead over user-level",
		XLabel: "bytes",
		YLabel: "overhead (%)",
	}
	fig.Series = gridSeries(kindLabels(""), floats(sizes), func(si, xi int) float64 {
		kind, size := cluster.Kinds[si], sizes[xi]
		iters := itersFor(size)
		user := UserLatency(kind, size, iters)
		mlat := MPILatency(kind, size, iters)
		return 100 * float64(mlat-user) / float64(user)
	})
	return fig
}
